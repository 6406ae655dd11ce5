import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from ccrsweep import reports
from ccrsweep.channels import ChannelKind, ChannelSpec, dilate_block
from ccrsweep.linalg import check_density
from ccrsweep.measures import _off_x, factor_marginals, sector_decomposition
from ccrsweep.reports import (
    APPLICABLE_IDENTITIES,
    BALANCED_X,
    IDENTITIES,
    PAIRS,
    IdentityId,
    _block_columns,
    _reduced,
    _sector_columns,
    _sudden_death_bisection,
    ccr_report,
    initial_state,
    sudden_death_point,
)

INV_SQRT2 = 1 / math.sqrt(2)
P_GRID = [i / 20 for i in range(21)]


def spec_for(kind, p):
    return ChannelSpec(kind, p, 1.0 if kind is ChannelKind.CADC else 0.0)


class TestReportValues:
    def test_damped_pair_symmetric_point(self):
        # rho_A = diag(3/4, 1/4) at p = 1/2, so P = p^2/2 and S_l = (1-p^2)/2;
        # the joint coherence block carries (1-p)^2/2
        r = ccr_report(ChannelSpec(ChannelKind.ADC, 0.5), INV_SQRT2)
        m = r.measures
        assert m["P_hs_A"] == pytest.approx(0.125, abs=1e-12)
        assert m["S_l_A"] == pytest.approx(0.375, abs=1e-12)
        assert m["Cc_AB"] == pytest.approx(0.125, abs=1e-12)
        assert m["Cc_AEA"] == pytest.approx(0.125, abs=1e-12)
        assert m["Cc_AEB"] == pytest.approx(0.125, abs=1e-12)
        assert m["concurrence_AB"] == pytest.approx(0.25, abs=1e-12)
        assert m["C_hs_A"] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "kind",
        [ChannelKind.ADC, ChannelKind.CADC, ChannelKind.PDC, ChannelKind.BFC],
    )
    def test_no_noise_entanglement_equals_joint_coherence(self, kind):
        for x in (0.25, 0.6, INV_SQRT2):
            r = ccr_report(spec_for(kind, 0.0), x)
            expected = 2 * r.x**2 * (1 - r.x**2)  # r.x: BFC pins its own x
            assert r.measures["S_l_A"] == pytest.approx(expected, abs=1e-12)
            assert r.measures["Cc_AB"] == pytest.approx(expected, abs=1e-12)
            headline = APPLICABLE_IDENTITIES[kind][0]
            assert r.residuals[headline] <= 1e-12

    def test_phase_flip_point(self):
        r = ccr_report(ChannelSpec(ChannelKind.PFC, 0.25), 0.5)
        assert r.measures["S_l_A"] == pytest.approx(0.28125, abs=1e-12)
        assert r.measures["Cc_AEA"] == pytest.approx(1.5 * 0.28125, abs=1e-12)

    def test_x_out_of_range(self):
        with pytest.raises(ValueError, match="x must lie"):
            ccr_report(ChannelSpec(ChannelKind.ADC, 0.5), 1.2)

    def test_bit_flip_pins_x(self):
        r = ccr_report(ChannelSpec(ChannelKind.BFC, 0.3), 0.2)
        assert r.x == BALANCED_X

    def test_one_qubit_reports_omit_pair_measures(self):
        r = ccr_report(ChannelSpec(ChannelKind.DC, 0.4), 0.5)
        assert "Cc_AB" not in r.measures
        assert "mutual_info_AB" not in r.measures
        assert "Cc_AEA" in r.measures

    def test_residuals_cover_applicable_identities(self):
        for kind in ChannelKind:
            r = ccr_report(spec_for(kind, 0.3), 0.5)
            assert set(r.residuals) == {IdentityId.CCR_UNIVERSAL, *APPLICABLE_IDENTITIES[kind]}
            assert r == ccr_report(r.channel, r.x)


class TestIdentityTable:
    def test_one_row_per_identity(self):
        assert set(IDENTITIES) == set(IdentityId)

    def test_headline_per_kind(self):
        headlines = {kind: APPLICABLE_IDENTITIES[kind][0] for kind in ChannelKind}
        assert headlines == {
            ChannelKind.ADC: IdentityId.ADC_REDISTRIBUTION,
            ChannelKind.CADC: IdentityId.CADC_REDISTRIBUTION,
            ChannelKind.PDC: IdentityId.PDC_SUBTRACTION,
            ChannelKind.BFC: IdentityId.BFC_FOUR_TERM,
            ChannelKind.PFC: IdentityId.THREE_HALVES,
            ChannelKind.BPFC: IdentityId.THREE_HALVES,
            ChannelKind.DC: IdentityId.THREE_HALVES,
        }

    def test_off_domain_residuals_still_reported(self):
        cadc, bpfc = IDENTITIES[IdentityId.CADC_REDISTRIBUTION], IDENTITIES[IdentityId.THREE_HALVES]
        r = ccr_report(ChannelSpec(ChannelKind.CADC, 0.5, 0.0), 0.5)
        assert not cadc.domain(ChannelKind.CADC, 0.0, r.x, r.p)
        assert r.residuals[IdentityId.CADC_REDISTRIBUTION] > 1e-3
        r = ccr_report(ChannelSpec(ChannelKind.BPFC, 0.5), 0.4)
        assert not bpfc.domain(ChannelKind.BPFC, 0.0, r.x, r.p)
        assert r.residuals[IdentityId.THREE_HALVES] > 1e-3


class TestCheckIdentity:
    """Identity residuals as a report records them."""

    def test_universal_relation_everywhere(self):
        for kind in ChannelKind:
            for p in (0.0, 0.17, 0.5, 0.83, 1.0):
                r = ccr_report(spec_for(kind, p), 0.4)
                assert r.residuals[IdentityId.CCR_UNIVERSAL] <= 1e-12
                # each residual is its row of IDENTITIES over the report's measures
                for ident, residual in r.residuals.items():
                    assert residual == IDENTITIES[ident].residual(r.measures), ident

    def test_damping_redistribution_no_noise(self):
        r = ccr_report(ChannelSpec(ChannelKind.ADC, 0.0), 0.35)
        assert r.residuals[IdentityId.ADC_REDISTRIBUTION] <= 1e-15

    def test_dephasing_subtraction_grid(self):
        for p in P_GRID:
            r = ccr_report(ChannelSpec(ChannelKind.PDC, p), 0.45)
            assert r.residuals[IdentityId.PDC_SUBTRACTION] <= 1e-12
            assert r.residuals[IdentityId.PDC_NL_SUM] <= 1e-12


class TestGridProperties:
    def test_damping_entropy_dominates_joint_coherence(self):
        for x in (0.2, 0.5, INV_SQRT2):
            for p in P_GRID:
                m = ccr_report(ChannelSpec(ChannelKind.ADC, p), x).measures
                assert m["S_l_A"] >= m["Cc_AB"] - 1e-13

    def test_correlated_damping_complement_constant(self):
        for x in (0.2, 0.5, INV_SQRT2):
            expected = 2 * x * x * (1 - x * x)
            for p in P_GRID:
                m = ccr_report(ChannelSpec(ChannelKind.CADC, p, 1.0), x).measures
                assert m["Cc_EAEB"] + m["Cc_AB"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", [ChannelKind.PDC, ChannelKind.PFC])
    def test_populations_untouched(self, kind):
        for p in P_GRID:
            m = ccr_report(spec_for(kind, p), 0.4).measures
            assert m["P_hs_A"] == pytest.approx(m["P_hs_A_initial"], abs=1e-12)

    def test_phase_flip_coherence_split(self):
        for x in (0.1, 0.45, INV_SQRT2):
            for p in P_GRID:
                r = ccr_report(ChannelSpec(ChannelKind.PFC, p), x)
                assert r.residuals[IdentityId.PFC_COHERENCE_SPLIT] <= 1e-12
                assert r.residuals[IdentityId.THREE_HALVES] <= 1e-12

    @pytest.mark.parametrize("kind", [ChannelKind.BPFC, ChannelKind.DC])
    def test_flip_mixtures_three_halves_at_symmetric_point(self, kind):
        # away from x = 1/sqrt(2) the A-E_A correlated coherence is
        # (1 + 2 x^2 (1-x^2)) S_l rather than (3/2) S_l for these two kinds
        for p in P_GRID:
            r = ccr_report(ChannelSpec(kind, p), INV_SQRT2)
            assert r.residuals[IdentityId.THREE_HALVES] <= 1e-12

    @pytest.mark.parametrize("kind", [ChannelKind.BPFC, ChannelKind.DC])
    def test_flip_mixtures_ratio_off_symmetric_point(self, kind):
        x = 0.4
        ratio = 1 + 2 * x * x * (1 - x * x)
        for p in (0.2, 0.5, 0.8):
            m = ccr_report(ChannelSpec(kind, p), x).measures
            assert m["Cc_AEA"] == pytest.approx(ratio * m["S_l_A"], abs=1e-12)

    def test_depolarizing_is_local_at_unit_p(self):
        for x in (0.2, 0.5, INV_SQRT2):
            m = ccr_report(ChannelSpec(ChannelKind.DC, 1.0), x).measures
            assert m["S_l_A"] == pytest.approx(0.0, abs=1e-12)
            assert m["Cc_AEA"] == pytest.approx(0.0, abs=1e-12)
            assert m["C_global"] == pytest.approx(m["C_hs_A"], abs=1e-12)


class TestBlockCost:
    """Each measure runs once per block on a stack, so a block's eigen-solves
    and partial traces are few and do not depend on how many p it holds."""

    #: eigvalsh calls per block: the X-shaped pair stacks of amplitude
    #: damping and bit flip and every qubit marginal have closed-form
    #: spectra, so only the phase-damping cross pairs and the one-qubit
    #: kinds' A-E_A pair are solved, once per block
    EIGVALSH = {ChannelKind.ADC: 0, ChannelKind.CADC: 0, ChannelKind.BFC: 0, ChannelKind.PDC: 1,
                ChannelKind.PFC: 1, ChannelKind.BPFC: 1, ChannelKind.DC: 1}
    #: partial traces per block, for every kind
    MOST_TRACES = 2

    @staticmethod
    def counting(monkeypatch) -> dict:
        from ccrsweep import linalg, measures

        counts = {}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        trace = counted("partial_trace", linalg._partial_trace)
        for module in (linalg, measures):  # measures binds the name on import
            monkeypatch.setattr(module, "_partial_trace", trace)
        return counts

    @pytest.mark.parametrize(
        "kind, mu", [(kind, 1.0 if kind is ChannelKind.CADC else 0.0) for kind in ChannelKind]
        + [(ChannelKind.CADC, 0.0)],
        ids=lambda v: getattr(v, "value", f"mu={v}"),
    )
    def test_calls_per_block(self, monkeypatch, kind, mu):
        counts = self.counting(monkeypatch)
        per_block = []
        for ps in (np.array([0.5]), np.linspace(0.0, 1.0, 101)):
            counts.clear()
            _block_columns(kind, mu, 0.5, ps)
            per_block.append(dict(counts))
        assert per_block[0] == per_block[1]
        assert per_block[0].get("eigvalsh", 0) == self.EIGVALSH[kind]
        assert 0 < per_block[0]["partial_trace"] <= self.MOST_TRACES

    def test_undephased_cross_pairs_are_solved_in_closed_form(self, monkeypatch):
        # at p = 0 phase damping has not yet touched the environment, so its
        # cross pairs are X-shaped too and the block makes no eigen-solve
        counts = self.counting(monkeypatch)
        _block_columns(ChannelKind.PDC, 0.0, 0.5, np.array([0.0]))
        assert "eigvalsh" not in counts


class TestSuddenDeath:
    def test_closed_form_value(self):
        assert sudden_death_point(0.5) == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_balanced_state_never_dies_early(self):
        assert sudden_death_point(INV_SQRT2) is None
        assert sudden_death_point(0.9) is None

    def test_bisection_agrees_with_closed_form(self):
        # independent bisection on the closed-form concurrence
        # 2 max(0, (1-p) x y - p (1-p) y^2) of the evolved joint state
        x = 0.3
        y = math.sqrt(1 - x * x)

        def conc(p):
            return 2 * max(0.0, (1 - p) * x * y - p * (1 - p) * y * y)

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if conc(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert sudden_death_point(x) == pytest.approx((lo + hi) / 2, abs=1e-8)

    @pytest.mark.parametrize("x", [0.1, 0.2, 0.25, 0.3, 0.5])
    def test_bisection_finds_the_root_in_ten_blocks(self, monkeypatch, x):
        calls, dilate_block = [], reports.dilate_block

        def counted(kind, ps, *args):
            calls.append(len(ps))
            return dilate_block(kind, ps, *args)

        monkeypatch.setattr(reports, "dilate_block", counted)
        assert abs(_sudden_death_bisection(x) - x / math.sqrt(1 - x * x)) <= 1e-15
        assert calls == [65] * 10

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="strictly inside"):
            sudden_death_point(0.0)
        with pytest.raises(ValueError, match="strictly inside"):
            sudden_death_point(1.0)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda k: k.value)
@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2]),
    p=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
    mu=st.sampled_from([0.0, 1.0]),
)
def test_report_identities_property(kind, x, p, mu):
    mu = mu if kind is ChannelKind.CADC else 0.0
    r = ccr_report(ChannelSpec(kind, p, mu), x)
    assert r.residuals[IdentityId.CCR_UNIVERSAL] <= 1e-10
    for ident, residual in r.residuals.items():
        if IDENTITIES[ident].domain(kind, mu, r.x, p):  # r.x: BFC pins its own x
            assert residual <= 1e-10, ident
    if kind is ChannelKind.ADC:
        # rho_A = diag(a, b) after damping x|00> + sqrt(1-x^2)|11>
        a = x * x + (1 - x * x) * p
        b = (1 - x * x) * (1 - p)
        m = r.measures
        assert m["P_hs_A"] == pytest.approx(a * a + b * b - 0.5, abs=1e-12)
        assert m["S_l_A"] == pytest.approx(1 - a * a - b * b, abs=1e-12)
        assert m["C_hs_A"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda k: k.value)
@settings(max_examples=10, deadline=None)
@given(
    x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2]),
    ps=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=12),
    mu=st.sampled_from([0.0, 1.0]),
)
def test_block_rows_match_single_reports(kind, x, ps, mu):
    # no row of a block may leak into another: each equals the block of one at its p
    mu = mu if kind is ChannelKind.CADC else 0.0
    block_x, measures, amplitudes, layout, *_ = _block_columns(kind, mu, x, np.array(ps))
    assert len(amplitudes) == len(ps)
    if kind is ChannelKind.PDC:  # the sector columns ccr_report adds for phase damping
        measures.update(_sector_columns(sector_decomposition(amplitudes, layout), len(ps)))
    residuals = {ident: row.residual(measures) for ident, row in IDENTITIES.items()
                 if kind in row.kinds}
    for i, p in enumerate(ps):
        single = ccr_report(ChannelSpec(kind, p, mu), x)
        assert block_x == single.x
        assert measures.keys() == single.measures.keys()
        assert residuals.keys() == single.residuals.keys()
        for name, column in measures.items():
            value = np.broadcast_to(column, len(ps))[i]
            assert abs(value - single.measures[name]) <= 1e-15, name
        for ident, column in residuals.items():
            value = np.broadcast_to(column, len(ps))[i]
            assert abs(value - single.residuals[ident]) <= 1e-15, ident
        expected, expected_layout = dilate_block(
            kind, np.array([p]), mu, *initial_state(kind, block_x))
        assert layout == expected_layout
        assert amplitudes[i].tobytes() == expected[0].tobytes()


#: Every kind at the mu of its sweeps, and CADC at both dilatable mu.
KIND_MU = [(kind, 1.0 if kind is ChannelKind.CADC else 0.0) for kind in ChannelKind] + [
    (ChannelKind.CADC, 0.0)]


@pytest.mark.parametrize("kind, mu", KIND_MU, ids=lambda v: getattr(v, "value", f"mu={v}"))
@settings(max_examples=15, deadline=None)
@given(
    x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2]),
    ps=st.lists(st.floats(0.0, 1.0), max_size=8),
)
def test_derived_states_are_density_matrices(kind, mu, x, ps):
    # the engine checks only the dilated amplitudes; every state it reduces
    # from them is M M^dag of normalized amplitudes, so a density matrix
    ps = np.array([0.0, *ps, 1.0])
    with mock.patch.object(reports, "local_measures", wraps=reports.local_measures) as local:
        *_, pairs, _ = _block_columns(kind, mu, x, ps)
    stack = np.stack(list(pairs.values()))
    assert stack.shape == (len(pairs), len(ps), 4, 4)
    check_density(stack)
    for marginals in factor_marginals(stack, (2, 2)):
        check_density(marginals)
    rho_a, initial = local.call_args.args
    check_density(rho_a)
    check_density(initial)


@settings(max_examples=15, deadline=None)
@given(x=st.floats(0.05, 0.7) | st.sampled_from([0.1, 0.25, 0.5]))
def test_bisection_pairs_are_density_matrices(x):
    with mock.patch.object(
            reports, "concurrence_x_state", wraps=reports.concurrence_x_state) as concurrence:
        _sudden_death_bisection(x)
    assert concurrence.call_count == 10
    for call in concurrence.call_args_list:
        ab = call.args[0]
        assert ab.shape == (65, 4, 4)
        check_density(ab)


#: Pairs whose off-X entries the engine's closed-form spectra rely on being
#: exactly zero, by (kind, mu): every pair of amplitude damping and bit flip,
#: and phase damping's A-B pair (its cross pairs take the eigvalsh path).
X_SHAPED_PAIRS = [(ChannelKind.ADC, 0.0, tuple(PAIRS)), (ChannelKind.CADC, 0.0, tuple(PAIRS)),
                  (ChannelKind.CADC, 1.0, tuple(PAIRS)), (ChannelKind.BFC, 0.0, tuple(PAIRS)),
                  (ChannelKind.PDC, 0.0, ("AB",))]


@pytest.mark.parametrize("kind, mu, names", X_SHAPED_PAIRS,
                         ids=["adc", "cadc-mu0", "cadc-mu1", "bfc", "pdc-AB"])
@pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, INV_SQRT2, 1.0])
def test_x_shaped_pairs_have_exactly_zero_off_x_entries(kind, mu, names, x):
    # p at and next to the ends of [0, 1], where round-off could leave an
    # off-X entry a denormal away from zero; bit flip at every x, not only
    # at the pinned 1/sqrt(2)
    ps = np.array([0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0])
    psi, sys_layout = initial_state(kind, x)
    amplitudes, layout = dilate_block(kind, ps, mu, psi, sys_layout)
    stack = _reduced(amplitudes, layout, *(PAIRS[name] for name in names))
    off_x = _off_x(stack)
    assert off_x.shape == (len(names), len(ps), 8)
    assert np.all(off_x == 0.0)


@pytest.mark.parametrize("x", [0.0, 1.0])
@pytest.mark.parametrize("ps", [[0.0], [0.0, 0.25, 0.5, 0.75, 1.0]], ids=["one_p", "five_p"])
def test_absent_phase_damping_sectors_are_zero_columns(x, ps):
    # at x = 0 or 1 some sectors (at x = 1 every one) have no weight in any row
    _, measures, amplitudes, layout, *_ = _block_columns(ChannelKind.PDC, 0.0, x, np.array(ps))
    measures.update(_sector_columns(sector_decomposition(amplitudes, layout), len(ps)))
    sectors = [name for name in measures if name.startswith("sector_")]
    assert len(sectors) == 7
    for name in sectors:
        assert np.shape(measures[name]) == (len(ps),), name
    residual = IDENTITIES[IdentityId.PDC_NL_SUM].residual(measures)
    assert np.shape(residual) == (len(ps),)
    assert (residual <= 1e-12).all()
