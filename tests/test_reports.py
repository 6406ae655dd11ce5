import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from ccrsweep import channels, linalg, measures, reports
from ccrsweep.channels import ChannelKind, ChannelSpec, dilate_block
from ccrsweep.cli import DEFAULT_X, TENTHS
from ccrsweep.linalg import check_density, check_norms
from ccrsweep.measures import _off_x, _sectors, factor_marginals, is_ppt, ppt_min_eigenvalue
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

    @pytest.mark.parametrize("x", ["0.5", True, False, np.True_, 0.5j, None, Fraction(1, 2),
                                   np.longdouble(0.5)],
                             ids=["str", "true", "false", "numpy-bool", "complex", "none",
                                  "fraction", "longdouble"])
    def test_report_x_must_be_real(self, x):
        # a bool is not evaluated as 1 (and recorded as True), and no
        # TypeError leaks out of a comparison
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\], got "):
            ccr_report(ChannelSpec(ChannelKind.ADC, 0.3), x)

    def test_report_keeps_a_numpy_or_integer_x_as_given(self):
        assert ccr_report(ChannelSpec(ChannelKind.ADC, 0.3), 1).x == 1
        assert type(ccr_report(ChannelSpec(ChannelKind.PFC, 0.3), 0).x) is int
        assert ccr_report(ChannelSpec(ChannelKind.ADC, 0.3), np.float64(0.5)).x == 0.5

    @pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda k: k.value)
    def test_a_float32_report_is_its_float64_twin_bytewise(self, kind):
        # p and x are widened where they enter the engine, which is exact
        mu = 1.0 if kind is ChannelKind.CADC else 0.0
        narrow = ccr_report(ChannelSpec(kind, np.float32(0.3), np.float32(mu)), np.float32(0.6))
        wide = ccr_report(ChannelSpec(kind, float(np.float32(0.3)), mu), float(np.float32(0.6)))
        assert narrow.x == wide.x and narrow.p == wide.p
        for got, want in ((narrow.measures, wide.measures), (narrow.residuals, wide.residuals)):
            assert list(got) == list(want)
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("kind, x", [(ChannelKind.ADC, -0.5), (ChannelKind.PFC, 1.5),
                                         (ChannelKind.DC, math.nan)],
                             ids=["adc-negative", "pfc-above-one", "dc-nan"])
    def test_initial_state_rejects_x_outside_the_unit_interval(self, kind, x):
        # past the boundary, -0.5 would give a valid state, 1.5 an
        # unnormalized one that fails only later, and NaN a NaN amplitude
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\], got "):
            initial_state(kind, x)

    @pytest.mark.parametrize("x", ["0.5", None, 0.5j, True, [0.2, 0.3], np.array([]),
                                   np.array([True, False]), np.array([0.5j]), Fraction(1, 2),
                                   np.longdouble(0.5), np.array([0.5], dtype=np.longdouble)],
                             ids=["str", "none", "complex", "true", "list", "empty-array",
                                  "bool-array", "complex-array", "fraction", "longdouble",
                                  "longdouble-array"])
    def test_initial_state_x_must_be_a_real_number_or_array(self, x):
        # no TypeError or numpy reduction error leaks out, and True is not x = 1
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\], got "):
            initial_state(ChannelKind.ADC, x)

    def test_bit_flip_pins_x(self):
        r = ccr_report(ChannelSpec(ChannelKind.BFC, 0.3), 0.2)
        assert r.x == BALANCED_X

    @pytest.mark.parametrize("x", [-0.1, 1.5, math.nan, True, "0.5", 0.5j, None],
                             ids=["negative", "above-one", "nan", "bool", "str", "complex", "none"])
    def test_bit_flip_x_is_checked_before_the_pin(self, x):
        # the message names the x handed in, not the pinned 1/sqrt(2)
        with pytest.raises(ValueError, match=rf"x must lie in \[0, 1\], got {re.escape(repr(x))}$"):
            ccr_report(ChannelSpec(ChannelKind.BFC, 0.3), x)

    def test_bit_flip_report_is_the_balanced_report_bytewise(self):
        pinned = ccr_report(ChannelSpec(ChannelKind.BFC, 0.3), 0.3)
        balanced = ccr_report(ChannelSpec(ChannelKind.BFC, 0.3), BALANCED_X)
        assert pinned.x == BALANCED_X
        assert repr(pinned) == repr(balanced)
        assert np.array(list(pinned.measures.values())).tobytes() == np.array(
            list(balanced.measures.values())).tobytes()

    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.9])
    def test_fractional_mu_report_has_no_dilation(self, mu):
        with pytest.raises(ValueError, match="no dilation on a two-qubit environment"):
            ccr_report(ChannelSpec(ChannelKind.CADC, 0.3, mu), 0.5)

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

    def test_report_identity_rows_are_the_table_filtered_by_kind(self):
        # ccr_report reads each kind's rows from a table built at import: the
        # rows of IDENTITIES that list the kind, in table order
        for kind in ChannelKind:
            want = [(ident, row.residual) for ident, row in IDENTITIES.items() if kind in row.kinds]
            assert list(reports._REPORT_IDENTITIES[kind]) == want
            r = ccr_report(spec_for(kind, 0.3), 0.5)
            assert list(r.residuals) == [ident for ident, _ in want]

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
    """Each measure runs once per block on a stack, so a block's kernel calls
    do not depend on how many p it holds; it makes no eigen-solve, no
    partial trace and no matrix HS coherence."""

    #: eigvalsh calls per block, for every kind: the X-shaped pair stacks of
    #: amplitude damping and bit flip and every qubit marginal have
    #: closed-form spectra, phase damping's cross pairs are read from A-B's
    #: X blocks and their own diagonal blocks, and the one-qubit kinds' A-E_A
    #: pair is the pure global state, whose smallest partial-transpose
    #: eigenvalue is closed-form too
    EIGVALSH = 0
    #: partial traces per block, for every kind: each one-qubit marginal is
    #: read from its pair's entries
    MOST_TRACES = 0
    #: closed-form 2x2 eigen-solves per block: a two-qubit block solves the
    #: A-B pair's X blocks, its A and B marginals and the X-shaped cross
    #: pairs' partially transposed blocks as one table; a one-qubit block
    #: has no A-B pair and takes its one PPT minimum from the amplitudes
    QUBIT_EIGENVALUES = {kind: int(kind.n_system_qubits == 2) for kind in ChannelKind}
    #: matrix HS coherence kernel calls per block, for every kind: each pair's
    #: joint coherence is summed from the entry table's squared moduli
    HS_COHERENCE = 0
    #: each (kind, mu) a block is evaluated at: cadc at both dilatable mu
    KIND_MU = ([(kind, 1.0 if kind is ChannelKind.CADC else 0.0) for kind in ChannelKind]
               + [(ChannelKind.CADC, 0.0)])

    @staticmethod
    def counting(monkeypatch) -> dict:
        counts = {}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        # each of the modules binds the name on import (reports the eigenvalue
        # kernel only since it solves one table)
        for name, modules in (("_partial_trace", (linalg, measures)),
                              ("_qubit_eigenvalues", (measures, reports)),
                              ("_hs_coherence", (measures, reports)),
                              ("check_norms", (linalg, measures, channels)),
                              ("_plan", (reports,)), ("_gather", (reports,))):
            call = counted(name.lstrip("_"), getattr(modules[0], name))
            for module in modules:
                monkeypatch.setattr(module, name, call, raising=False)
        return counts

    @pytest.mark.parametrize("kind, mu", KIND_MU, ids=lambda v: getattr(v, "value", f"mu={v}"))
    def test_calls_per_block(self, monkeypatch, kind, mu):
        counts = self.counting(monkeypatch)
        per_block = []
        for ps in (np.array([0.5]), np.linspace(0.0, 1.0, 101)):
            counts.clear()
            _block_columns(kind, mu, 0.5, ps)
            per_block.append(dict(counts))
        assert per_block[0] == per_block[1]
        assert per_block[0].get("eigvalsh", 0) == self.EIGVALSH
        assert per_block[0].get("partial_trace", 0) <= self.MOST_TRACES
        assert per_block[0].get("hs_coherence", 0) == self.HS_COHERENCE

    @pytest.mark.parametrize("kind, mu", KIND_MU, ids=lambda v: getattr(v, "value", f"mu={v}"))
    def test_one_eigen_table_per_block(self, monkeypatch, kind, mu):
        counts = self.counting(monkeypatch)
        for ps in (np.array([0.5]), np.linspace(0.0, 1.0, 101)):
            counts.clear()
            _block_columns(kind, mu, 0.5, ps)
            assert counts.get("qubit_eigenvalues", 0) == self.QUBIT_EIGENVALUES[kind]

    @pytest.mark.parametrize("kind, mu", KIND_MU, ids=lambda v: getattr(v, "value", f"mu={v}"))
    def test_one_table_read_per_block(self, monkeypatch, kind, mu):
        # the block's layout plan and its pair gather table are each looked
        # up once; every 2x2 block is read from the one entry table
        counts = self.counting(monkeypatch)
        for ps in (np.array([0.5]), np.linspace(0.0, 1.0, 101)):
            counts.clear()
            _block_columns(kind, mu, 0.5, ps)
            assert (counts.get("plan"), counts.get("gather")) == (1, 1)

    @pytest.mark.parametrize("kind, mu", KIND_MU, ids=lambda v: getattr(v, "value", f"mu={v}"))
    def test_one_norm_check_per_report(self, monkeypatch, kind, mu):
        # x is checked where it enters; the states built from it, the dilated
        # amplitudes and phase damping's sector split are not checked again
        counts = self.counting(monkeypatch)
        ccr_report(ChannelSpec(kind, 0.5, mu), 0.5)
        assert counts.get("check_norms", 0) == 0

    @pytest.mark.parametrize("kind, mu", KIND_MU, ids=lambda v: getattr(v, "value", f"mu={v}"))
    def test_no_off_x_gather_per_block(self, monkeypatch, kind, mu):
        # whether a cross pair is off the X shape is read from the entry
        # table's off-X entries, not gathered from the pair stack
        calls = []
        off_x = measures._off_x

        def counted(m):
            calls.append(m.shape)
            return off_x(m)
        for module in (measures, reports):
            monkeypatch.setattr(module, "_off_x", counted, raising=False)
        for ps in (np.array([0.5]), np.linspace(0.0, 1.0, 101)):
            _block_columns(kind, mu, 0.5, ps)
        assert calls == []

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
        # fifteen blocks of one 17-point bracket each narrow it 16-fold
        calls, dilate = [], reports._dilate

        def counted(kraus, *args):  # the p shape of the Kraus tensor (..., nK, d, d)
            calls.append(kraus.shape[:-3])
            return dilate(kraus, *args)

        monkeypatch.setattr(reports, "_dilate", counted)
        assert abs(_sudden_death_bisection(x) - x / math.sqrt(1 - x * x)) <= 1e-15
        assert calls == [(1, 17)] * 15

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="strictly inside"):
            sudden_death_point(0.0)
        with pytest.raises(ValueError, match="strictly inside"):
            sudden_death_point(1.0)

    @pytest.mark.parametrize("x", ["0.5", None, 0.5j, True, np.array([0.3]), np.array([0.2, 0.3]),
                                   Fraction(1, 2), np.longdouble(0.5)],
                             ids=["str", "none", "complex", "bool", "one-array", "array",
                                  "fraction", "longdouble"])
    def test_x_must_be_a_real_number(self, x):
        # no TypeError or numpy truth-value error leaks out
        with pytest.raises(ValueError, match=r"x must lie strictly inside \(0, 1\), got "):
            sudden_death_point(x)

    @pytest.mark.parametrize("x", [0.2, 0.6], ids=["0.2", "0.6"])
    def test_a_float32_x_is_its_float64_twin(self, x):
        # widened after the check: a float32 closed form once missed the
        # bisection by more than 1e-8 at 0.6
        got = sudden_death_point(np.float32(x))
        assert type(got) is float
        assert got == sudden_death_point(float(np.float32(x)))


def assert_normalized_real_states(kind, x):
    psi, layout = initial_state(kind, x)
    assert psi.dtype == np.float64
    assert psi.shape == np.shape(x) + (2**kind.n_system_qubits,) == np.shape(x) + (layout.dim,)
    check_norms(psi)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda k: k.value)
def test_initial_states_are_normalized_real_amplitudes(kind):
    # the engine dilates these states unchecked (dilate_block keeps its checks
    # for states from outside): one per number x and one per entry of an array
    grid = np.array(sorted(set(DEFAULT_X) | set(TENTHS)))
    for x in (*DEFAULT_X, *TENTHS, 0, 1, grid, grid.reshape(1, -1), np.array([0, 1])):
        assert_normalized_real_states(kind, x)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda k: k.value)
@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2]),
    xs=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=12),
)
def test_initial_states_are_normalized_real_amplitudes_property(kind, x, xs):
    assert_normalized_real_states(kind, x)
    assert_normalized_real_states(kind, np.array(xs))


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
    block_x = BALANCED_X if kind is ChannelKind.BFC else x  # ccr_report's pin
    measures, amplitudes, layout, _ = _block_columns(kind, mu, block_x, np.array(ps))
    assert len(amplitudes) == len(ps)
    if kind is ChannelKind.PDC:  # the sector columns ccr_report adds for phase damping
        measures.update(_sector_columns(_sectors(amplitudes, len(layout.labels))))
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
    with mock.patch.object(reports, "_measure_columns", wraps=reports._measure_columns) as stage:
        _, amplitudes, layout, _ = _block_columns(kind, mu, x, ps)
    pairs = [pair for pair in PAIRS.values() if set(pair) <= set(layout.labels)]
    stack = _reduced(amplitudes, layout, *pairs)
    assert stack.shape == (len(pairs), len(ps), 4, 4)
    check_density(stack)
    for marginals in factor_marginals(stack, (2, 2)):
        check_density(marginals)
    # A's marginal, the A-E_A pair's first factor, and the initial marginal,
    # of the entries (a, d, b) the measure stage reads its local and
    # *_initial columns from
    check_density(factor_marginals(stack[pairs.index(PAIRS["AEA"])], (2, 2))[0])
    a, d, b = stage.call_args.args[2]
    initial = np.array([[a, b], [b, d]]).transpose(2, 0, 1)
    assert initial.shape == (1, 2, 2)
    check_density(initial)


@settings(max_examples=15, deadline=None)
@given(x=st.floats(0.05, 0.7) | st.sampled_from([0.1, 0.25, 0.5]))
def test_bisection_pairs_are_density_matrices(x):
    with mock.patch.object(reports, "_x_entries", wraps=reports._x_entries) as reading:
        _sudden_death_bisection(x)
    assert reading.call_count == 15
    for call in reading.call_args_list:
        ab = call.args[0]
        assert ab.shape == (17, 4, 4)
        check_density(ab)
        # the X readings take the off-X entries as zero, and they are
        assert not _off_x(ab).any()


#: Pairs whose off-X entries the engine's closed-form spectra rely on being
#: exactly zero, by (kind, mu): every pair of amplitude damping and bit flip,
#: and phase damping's A-B pair (its A-E_A and A-E_B pairs are read by their
#: zero A-coherence block, PDC_A_DIAGONAL_PAIRS below, and its E_A-E_B pair
#: by A-B's spectrum, PDC_EAEB_PS below).
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


#: Phase damping's cross pairs with no coherence on A: each is its own
#: partial transpose, and the engine reads its spectrum from its diagonal
#: 2x2 blocks {0, 1} and {2, 3} (Peres, PRL 77, 1413 (1996)) without
#: checking the zeros, which the test below pins.
PDC_A_DIAGONAL_PAIRS = ("AEA", "AEB")
EDGE_PS = np.array([0.0, 5e-324, 1e-300, 0.37, 1.0 - 2.0**-53, 1.0])


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, INV_SQRT2, 1.0])
def test_phase_damping_a_diagonal_pairs_have_exactly_zero_a_coherence(x):
    # p at and next to the ends of [0, 1], as for the X-shaped pairs
    psi, sys_layout = initial_state(ChannelKind.PDC, x)
    amplitudes, layout = dilate_block(ChannelKind.PDC, EDGE_PS, 0.0, psi, sys_layout)
    stack = _reduced(amplitudes, layout, *(PAIRS[name] for name in PDC_A_DIAGONAL_PAIRS))
    coherence = stack[..., :2, 2:]
    assert coherence.shape == (2, len(EDGE_PS), 2, 2)
    assert np.all(coherence == 0.0)


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, INV_SQRT2, 1.0])
@pytest.mark.parametrize("ps", [EDGE_PS, *EDGE_PS[:, np.newaxis]],
                         ids=["edges", *(f"p={p!r}" for p in EDGE_PS.tolist())])
def test_phase_damping_a_diagonal_minima_match_the_public_ppt_test(x, ps):
    # the engine's minima and flags of A-E_A, A-E_B and E_A-E_B against the
    # public partial transpose and its eigen-solve, in a block and alone
    m, amplitudes, layout, ppt_min = _block_columns(ChannelKind.PDC, 0.0, x, ps)
    names = list(PAIRS)
    for name in (*PDC_A_DIAGONAL_PAIRS, "EAEB"):
        pair = _reduced(amplitudes, layout, PAIRS[name])[0]
        want = ppt_min_eigenvalue(pair)
        assert np.abs(ppt_min[names.index(name)] - want).max() <= 1e-15, name
        assert m[f"ppt_{name}"].tolist() == is_ppt(pair).astype(float).tolist(), name


#: Phase damping's E_A-E_B pair, x^2|00><00| + y^2|ee><ee| with the real
#: |e> = sqrt(1-p)|0> + sqrt(p)|1>, is its own partial transpose and, as the
#: complement of A-B in a pure state, has A-B's spectrum (Schmidt): the
#: engine reads its PPT minimum from A-B's X blocks without checking either,
#: which the test below pins, at p at and next to 0 and 1 and on a grid.
PDC_EAEB_PS = {"edges": np.array([0.0, 5e-324, 1e-300, 1e-8, 1.0 - 1e-8, 1.0 - 2.0**-53, 1.0]),
               "grid": np.linspace(0.0, 1.0, 101)}


@pytest.mark.parametrize("x", [0.0, 0.37, INV_SQRT2, 1.0])
@pytest.mark.parametrize("ps", PDC_EAEB_PS.values(), ids=PDC_EAEB_PS.keys())
def test_phase_damping_env_pair_is_its_own_transpose_with_the_ab_spectrum(x, ps):
    psi, sys_layout = initial_state(ChannelKind.PDC, x)
    amplitudes, layout = dilate_block(ChannelKind.PDC, ps, 0.0, psi, sys_layout)
    ab, eaeb = _reduced(amplitudes, layout, PAIRS["AB"], PAIRS["EAEB"])
    assert np.abs(linalg._partial_transpose(eaeb, (2, 2), 0) - eaeb).max() <= 2.0**-52
    assert np.abs(np.linalg.eigvalsh(eaeb) - np.linalg.eigvalsh(ab)).max() <= 1e-15


@pytest.mark.parametrize("x", [0.0, 1.0])
@pytest.mark.parametrize("ps", [[0.0], [0.0, 0.25, 0.5, 0.75, 1.0]], ids=["one_p", "five_p"])
def test_absent_phase_damping_sectors_are_zero_columns(x, ps):
    # at x = 0 or 1 some sectors (at x = 1 every one) have no weight in any row
    measures, amplitudes, layout, _ = _block_columns(ChannelKind.PDC, 0.0, x, np.array(ps))
    measures.update(_sector_columns(_sectors(amplitudes, len(layout.labels))))
    sectors = [name for name in measures if name.startswith("sector_")]
    assert len(sectors) == 7
    for name in sectors:
        assert np.shape(measures[name]) == (len(ps),), name
    residual = IDENTITIES[IdentityId.PDC_NL_SUM].residual(measures)
    assert np.shape(residual) == (len(ps),)
    assert (residual <= 1e-12).all()
