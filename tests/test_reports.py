import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrsweep import reports
from ccrsweep.channels import ChannelKind, ChannelSpec, dilate
from ccrsweep.reports import (
    APPLICABLE_IDENTITIES,
    BALANCED_X,
    IDENTITIES,
    IdentityId,
    _sudden_death_bisection,
    ccr_report,
    check_identity,
    initial_state,
    report_block,
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

    @pytest.mark.parametrize(
        "specs",
        [[], [ChannelSpec(ChannelKind.ADC, 0.1), ChannelSpec(ChannelKind.PDC, 0.1)]],
        ids=["empty", "mixed"],
    )
    def test_block_needs_one_kind(self, specs):
        with pytest.raises(ValueError, match="one channel kind"):
            report_block(specs, 0.5)

    def test_bit_flip_pins_x(self):
        r = ccr_report(ChannelSpec(ChannelKind.BFC, 0.3), 0.2)
        assert r.x == BALANCED_X

    def test_one_qubit_reports_omit_pair_measures(self):
        r = ccr_report(ChannelSpec(ChannelKind.DC, 0.4), 0.5)
        assert "Cc_AB" not in r.measures
        assert "mutual_info_AB" not in r.measures
        assert "Cc_AEA" in r.measures

    def test_report_keeps_its_dilated_state(self):
        for kind in ChannelKind:
            r = ccr_report(spec_for(kind, 0.3), 0.5)
            expected = dilate(r.channel, *initial_state(kind, r.x))
            assert r.state.layout == expected.layout
            assert np.array_equal(r.state.state, expected.state)
            assert r == ccr_report(r.channel, r.x)

    def test_residuals_cover_applicable_identities(self):
        for kind in ChannelKind:
            r = ccr_report(spec_for(kind, 0.3), 0.5)
            assert set(r.residuals) == {IdentityId.CCR_UNIVERSAL, *APPLICABLE_IDENTITIES[kind]}


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
        r = ccr_report(ChannelSpec(ChannelKind.CADC, 0.5, 0.0), 0.5)
        assert not IDENTITIES[IdentityId.CADC_REDISTRIBUTION].domain(r.channel, r.x)
        assert r.residuals[IdentityId.CADC_REDISTRIBUTION] > 1e-3
        r = ccr_report(ChannelSpec(ChannelKind.BPFC, 0.5), 0.4)
        assert not IDENTITIES[IdentityId.THREE_HALVES].domain(r.channel, r.x)
        assert r.residuals[IdentityId.THREE_HALVES] > 1e-3


class TestCheckIdentity:
    def test_universal_relation_everywhere(self):
        for kind in ChannelKind:
            for p in (0.0, 0.17, 0.5, 0.83, 1.0):
                r = ccr_report(spec_for(kind, p), 0.4)
                assert check_identity(IdentityId.CCR_UNIVERSAL, r) <= 1e-12

    def test_damping_redistribution_no_noise(self):
        r = ccr_report(ChannelSpec(ChannelKind.ADC, 0.0), 0.35)
        assert check_identity(IdentityId.ADC_REDISTRIBUTION, r) <= 1e-15

    def test_dephasing_subtraction_grid(self):
        for p in P_GRID:
            r = ccr_report(ChannelSpec(ChannelKind.PDC, p), 0.45)
            assert check_identity(IdentityId.PDC_SUBTRACTION, r) <= 1e-12
            assert check_identity(IdentityId.PDC_NL_SUM, r) <= 1e-12

    def test_inapplicable_identity_rejected(self):
        r = ccr_report(ChannelSpec(ChannelKind.ADC, 0.5), 0.5)
        with pytest.raises(ValueError, match="does not apply"):
            check_identity(IdentityId.PDC_SUBTRACTION, r)


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
        calls, block_columns = [], reports._block_columns

        def counted(specs, x):
            calls.append(len(specs))
            return block_columns(specs, x)

        monkeypatch.setattr(reports, "_block_columns", counted)
        assert abs(_sudden_death_bisection(x) - x / math.sqrt(1 - x * x)) <= 1e-15
        assert len(calls) <= 10

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
    r = ccr_report(ChannelSpec(kind, p, mu if kind is ChannelKind.CADC else 0.0), x)
    assert r.residuals[IdentityId.CCR_UNIVERSAL] <= 1e-10
    for ident, residual in r.residuals.items():
        if IDENTITIES[ident].domain(r.channel, r.x):  # r.x: BFC pins its own x
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
    specs = [ChannelSpec(kind, p, mu if kind is ChannelKind.CADC else 0.0) for p in ps]
    block = report_block(specs, x)
    assert [r.channel for r in block] == specs
    for r in block:
        single = ccr_report(r.channel, x)
        assert r.x == single.x
        assert r.measures.keys() == single.measures.keys()
        assert r.residuals.keys() == single.residuals.keys()
        for name, value in r.measures.items():
            assert abs(value - single.measures[name]) <= 1e-15, name
        for ident, value in r.residuals.items():
            assert abs(value - single.residuals[ident]) <= 1e-15, ident
        expected = dilate(r.channel, *initial_state(kind, r.x))
        assert r.state.layout == expected.layout
        assert r.state.state.tobytes() == expected.state.tobytes()
