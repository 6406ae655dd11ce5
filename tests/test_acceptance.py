"""Acceptance suite: one test per target criterion, printing PASS/FAIL lines.

Every expected value here is either a closed form of the evolved states,
written out in p and x, or a frozen oracle value.  Two literature forms do
not match the states the documented channels produce: the linear
amplitude-damping forms P = p/2, S_l = (1-p)/2 (criterion 2a) and
Cc_AEA = (3/2) S_l for bpfc/dc at every x (criterion 7a).  Those tests assert
the exact forms and print how far the literature forms are off, so the
discrepancy stays on record.
"""

import math
import time

import numpy as np
import pytest

from ccrsweep.channels import ChannelKind, ChannelSpec, _kraus_stack, _operator_sums, dilate_block
from ccrsweep.cli import SweepConfig, render_csv, sweep_table, verify_command
from ccrsweep.linalg import outer, partial_trace
from ccrsweep.measures import (
    hs_coherence,
    hs_predictability,
    is_ppt,
    linear_entropy,
    sector_decomposition,
)
from ccrsweep.reports import (
    IDENTITIES,
    IdentityId,
    _sudden_death_bisection,
    ccr_report,
    initial_state,
    sudden_death_point,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
X_GRID = (0.1, 0.2, 0.25, 0.5, INV_SQRT2)
P_GRID = [i / 100 for i in range(101)]


def spec_for(kind, p):
    return ChannelSpec(kind, p, 1.0 if kind is ChannelKind.CADC else 0.0)


def dilate_one(spec, psi, lay):
    """The spec's point as a block of one of dilate_block: its state and layout."""
    amplitudes, layout = dilate_block(spec.kind, np.array([spec.p]), spec.mu, psi, lay)
    return amplitudes[0], layout


def status(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_1_universal_complementarity():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ChannelKind:
        for x in X_GRID:
            psi0, lay0 = initial_state(kind, x)
            for p in P_GRID:
                state, layout = dilate_one(spec_for(kind, p), psi0, lay0)
                rho_a = partial_trace(outer(state, layout), {"A"})
                total = (
                    hs_predictability(rho_a)
                    + hs_coherence(rho_a)
                    + linear_entropy(rho_a)
                )
                worst = max(worst, abs(total - 0.5))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    print(f"ACCEPTANCE 1 (universal complementarity): {status(ok)} "
          f"worst residual {worst:.3e}, {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2a_adc_symmetric_closed_forms_as_stated():
    # Damping both qubits of the Bell pair leaves rho_A = diag((1+p)/2, (1-p)/2),
    # so P_hs = ((1+p)^2 + (1-p)^2)/4 - 1/2 = p^2/2 and S_l = 1 - (1+p^2)/2
    # = (1-p^2)/2; Cc_AB = (1-p)^2/2.  The literature's linear P = p/2,
    # S_l = (1-p)/2 miss by p(1-p)/2 and are reported, not asserted.
    worst = worst_literal = 0.0
    for p in P_GRID:
        m = ccr_report(ChannelSpec(ChannelKind.ADC, p), INV_SQRT2).measures
        worst = max(
            worst,
            abs(m["P_hs_A"] - p * p / 2),
            abs(m["S_l_A"] - (1 - p * p) / 2),
            abs(m["Cc_AB"] - (1 - p) ** 2 / 2),
        )
        worst_literal = max(
            worst_literal,
            abs(m["P_hs_A"] - p / 2),
            abs(m["S_l_A"] - (1 - p) / 2),
            abs(m["Cc_AB"] - (1 - p) ** 2 / 2),
        )
    ok = worst <= 1e-10
    print(f"ACCEPTANCE 2a (ADC closed forms at x = 1/sqrt2): {status(ok)} worst {worst:.3e}; "
          f"literature forms P=p/2, S_l=(1-p)/2 off by {worst_literal:.3e}")
    assert worst <= 1e-10


def test_criterion_2b_adc_entropy_redistribution():
    worst = 0.0
    worst_cc = 0.0
    for x in X_GRID:
        for p in P_GRID:
            m = ccr_report(ChannelSpec(ChannelKind.ADC, p), x).measures
            worst = max(worst, abs(m["S_l_A"] - (m["Cc_AB"] + m["Cc_AEA"] + m["Cc_AEB"])))
            if x == INV_SQRT2:
                worst_cc = max(worst_cc, abs(m["Cc_AB"] - (1 - p) ** 2 / 2))
    ok = worst <= 1e-12 and worst_cc <= 1e-10
    print(f"ACCEPTANCE 2b (ADC redistribution): {status(ok)} "
          f"identity worst {worst:.3e}, Cc_AB closed form worst {worst_cc:.3e}")
    assert worst <= 1e-12
    assert worst_cc <= 1e-10


def test_criterion_3_sudden_death():
    p_star = 1 / math.sqrt(3.0)
    step = 0.01
    rows = [
        (p, ccr_report(ChannelSpec(ChannelKind.ADC, p), 0.5).measures["concurrence_AB"])
        for p in P_GRID
    ]
    ok = all(
        (c == 0.0 if p >= p_star + step else c > 0.0 if p <= p_star - step else True)
        for p, c in rows
    )
    bisected = _sudden_death_bisection(0.5)
    closed = sudden_death_point(0.5)
    ok = ok and abs(bisected - closed) <= 1e-8

    balanced = [
        (p, ccr_report(ChannelSpec(ChannelKind.ADC, p), INV_SQRT2).measures["concurrence_AB"])
        for p in P_GRID
    ]
    ok = ok and all(c > 0.0 for p, c in balanced if p < 1.0)
    ok = ok and balanced[-1][1] == 0.0 and sudden_death_point(INV_SQRT2) is None
    print(f"ACCEPTANCE 3 (entanglement sudden death): {status(ok)} "
          f"root {closed:.9f}, |closed - bisected| = {abs(bisected - closed):.2e}")
    assert ok


def test_criterion_4_correlated_damping():
    worst_red = worst_const = worst_sl = 0.0
    for x in X_GRID:
        target = 2 * x * x * (1 - x * x)
        for p in P_GRID:
            r = ccr_report(ChannelSpec(ChannelKind.CADC, p, 1.0), x)
            m = r.measures
            worst_red = max(worst_red, r.residuals[IdentityId.CADC_REDISTRIBUTION])
            worst_const = max(worst_const, abs(m["Cc_EAEB"] + m["Cc_AB"] - target))
            y2 = 1 - x * x
            closed = 1 - (x * x + y2 * p) ** 2 - (1 - p) ** 2 * y2**2
            worst_sl = max(worst_sl, abs(m["S_l_A"] - closed))
    half = abs(
        ccr_report(ChannelSpec(ChannelKind.CADC, 0.3, 1.0), INV_SQRT2).measures["Cc_EAEB"]
        + ccr_report(ChannelSpec(ChannelKind.CADC, 0.3, 1.0), INV_SQRT2).measures["Cc_AB"]
        - 0.5
    )
    ok = worst_red <= 1e-12 and worst_const <= 1e-12 and worst_sl <= 1e-10 and half <= 1e-12
    print(f"ACCEPTANCE 4 (correlated damping): {status(ok)} redistribution {worst_red:.3e}, "
          f"complement constancy {worst_const:.3e}, entropy closed form {worst_sl:.3e}")
    assert ok


def test_criterion_5_phase_damping():
    # six coherence-sector coefficient groups at sampled points
    worst_sector = 0.0
    for x in (0.25, 0.5, INV_SQRT2):
        y2 = 1 - x * x
        g = x * x * y2
        for p in (0.1, 0.3, 0.65, 0.9):
            psi0, lay0 = initial_state(ChannelKind.PDC, x)
            s = sector_decomposition(*dilate_one(ChannelSpec(ChannelKind.PDC, p), psi0, lay0))
            q = 1 - p
            pair_env = 4 * y2**2 * (q**3 * p + q * p**3)  # both lone-qubit groups
            for got, want in [
                (s.get(frozenset({"A", "B"}), 0.0), 2 * g * q * q),
                (s.get(frozenset({"A", "B", "E_A"}), 0.0), 2 * g * p * q),
                (s.get(frozenset({"A", "B", "E_B"}), 0.0), 2 * g * p * q),
                (s.get(frozenset({"A", "B", "E_A", "E_B"}), 0.0), 2 * g * p * p),
                (s.get(frozenset({"E_A", "E_B"}), 0.0), 4 * y2**2 * q * q * p * p),
                (s.get(frozenset({"E_A"}), 0.0) + s.get(frozenset({"E_B"}), 0.0), pair_env),
            ]:
                worst_sector = max(worst_sector, abs(got - want))

    worst_sub = 0.0
    ppt_ok = True
    for x in X_GRID:
        for p in P_GRID:
            r = ccr_report(ChannelSpec(ChannelKind.PDC, p), x)
            worst_sub = max(worst_sub, r.residuals[IdentityId.PDC_SUBTRACTION])
            m = r.measures
            ppt_ok = ppt_ok and m["ppt_AEA"] == 1.0 and m["ppt_AEB"] == 1.0 and m["ppt_EAEB"] == 1.0
    ok = worst_sector <= 1e-10 and worst_sub <= 1e-12 and ppt_ok
    print(f"ACCEPTANCE 5 (phase damping): {status(ok)} sectors {worst_sector:.3e}, "
          f"subtraction {worst_sub:.3e}, all partitions separable: {ppt_ok}")
    assert ok


def test_criterion_6_bit_flip():
    worst_forms = worst_identity = 0.0
    ppt_ok = True
    for p in P_GRID:
        r = ccr_report(ChannelSpec(ChannelKind.BFC, p), INV_SQRT2)
        m = r.measures
        s = p / 2
        for got, want in [
            (m["Cc_AB"], (1 + (1 - p) ** 4) / 4),
            (m["Cc_AEA"], (1 - s) * s),
            (m["Cc_AEB"], (1 - s) * s),
            (m["Cc_EAEB"], 4 * (1 - s) ** 2 * s * s),
        ]:
            worst_forms = max(worst_forms, abs(got - want))
        worst_identity = max(worst_identity, r.residuals[IdentityId.BFC_FOUR_TERM])
        ppt_ok = ppt_ok and m["ppt_AEA"] == 1.0 and m["ppt_AEB"] == 1.0 and m["ppt_EAEB"] == 1.0
    ok = worst_forms <= 1e-10 and worst_identity <= 1e-12 and ppt_ok
    print(f"ACCEPTANCE 6 (bit flip): {status(ok)} closed forms {worst_forms:.3e}, "
          f"four-term identity {worst_identity:.3e}, separable: {ppt_ok}")
    assert ok


def test_criterion_7a_three_halves_full_grid_as_stated():
    # For a sigma_y branch of weight q on x|0> + y|1>: S_l = 2q(1-q) and
    # Cc_AEA = 2q(1-q)(1 + 2x^2y^2) (bpfc q = p, dc q = (1-p)/2); for the
    # sigma_z branch of pfc: S_l = 8x^2y^2 p(1-p), Cc_AEA = 12x^2y^2 p(1-p).
    # So the ratio is 3/2 at every x only for pfc, and the table's domain of
    # THREE_HALVES must be exactly where it is 3/2.
    def ratio(kind, x):
        return 1.5 if kind is ChannelKind.PFC else 1 + 2 * x * x * (1 - x * x)

    identity = IDENTITIES[IdentityId.THREE_HALVES]
    kinds = (ChannelKind.PFC, ChannelKind.BPFC, ChannelKind.DC)
    worst = {kind: 0.0 for kind in kinds}
    worst_literal = {kind: 0.0 for kind in kinds}
    worst_in_domain = 0.0
    domain_mismatches = []
    for kind in kinds:
        for x in X_GRID:
            r_exact = ratio(kind, x)
            at_three_halves = abs(r_exact - 1.5) <= 1e-12
            for p in P_GRID:
                spec = ChannelSpec(kind, p)
                r = ccr_report(spec, x)
                m = r.measures
                residual = r.residuals[IdentityId.THREE_HALVES]
                worst[kind] = max(worst[kind], abs(m["Cc_AEA"] - r_exact * m["S_l_A"]))
                worst_literal[kind] = max(worst_literal[kind], residual)
                if identity.domain(kind, spec.mu, x, p) != at_three_halves:
                    domain_mismatches.append((kind.value, x, p))
                elif at_three_halves:
                    worst_in_domain = max(worst_in_domain, residual)
    ok = (
        all(v <= 1e-12 for v in worst.values())
        and not domain_mismatches
        and worst_in_domain <= 1e-12
    )
    detail = ", ".join(f"{k.value} {v:.3e}" for k, v in worst.items())
    literal = ", ".join(f"{k.value} {v:.3e}" for k, v in worst_literal.items())
    print(f"ACCEPTANCE 7a (Cc_AEA = r S_l, full grid): {status(ok)} {detail}; "
          f"in-domain 3/2 residual {worst_in_domain:.3e}; "
          f"literature 3/2 at every x off by {literal}")
    assert ok, f"{detail}; domain mismatches (kind, x, p): {domain_mismatches[:5]}"


def test_criterion_7b_single_qubit_kinds_valid_domain():
    worst_pfc = worst_sym = worst_split = worst_pred = 0.0
    for x in X_GRID:
        for p in P_GRID:
            r = ccr_report(ChannelSpec(ChannelKind.PFC, p), x)
            worst_pfc = max(worst_pfc, r.residuals[IdentityId.THREE_HALVES])
            worst_split = max(worst_split, r.residuals[IdentityId.PFC_COHERENCE_SPLIT])
            worst_pred = max(
                worst_pred, abs(r.measures["P_hs_A"] - r.measures["P_hs_A_initial"])
            )
    for kind in (ChannelKind.BPFC, ChannelKind.DC):
        for p in P_GRID:
            r = ccr_report(ChannelSpec(kind, p), INV_SQRT2)
            worst_sym = max(worst_sym, r.residuals[IdentityId.THREE_HALVES])

    worst_dc = 0.0
    for x in X_GRID:
        m = ccr_report(ChannelSpec(ChannelKind.DC, 1.0), x).measures
        worst_dc = max(worst_dc, abs(m["S_l_A"]), abs(m["C_global"] - m["C_hs_A"]))
    ok = max(worst_pfc, worst_sym, worst_split, worst_pred, worst_dc) <= 1e-12
    print(f"ACCEPTANCE 7b (single-qubit kinds, valid domain): {status(ok)} "
          f"pfc 3/2 {worst_pfc:.3e}, bpfc/dc 3/2 at symmetric x {worst_sym:.3e}, "
          f"coherence split {worst_split:.3e}, P invariance {worst_pred:.3e}, "
          f"dc endpoint {worst_dc:.3e}")
    assert ok


def test_criterion_8_operator_sum_equals_dilation():
    worst_map = worst_complete = 0.0
    for kind in ChannelKind:
        mus = (0.0, 1.0) if kind is ChannelKind.CADC else (0.0,)
        for mu in mus:
            for p in [i / 10 for i in range(11)]:
                spec = ChannelSpec(kind, p, mu if kind is ChannelKind.CADC else 0.0)
                ops = _kraus_stack(spec.kind, np.array([spec.p]), spec.mu)
                worst_complete = max(worst_complete, float(_operator_sums(ops)[0][0]))
                for x in (0.5, INV_SQRT2):
                    psi0, lay0 = initial_state(kind, x)
                    rho0 = outer(psi0, lay0).mat
                    via_kraus = _operator_sums(ops, rho0[np.newaxis])[1][0, 0]
                    state, layout = dilate_one(spec, psi0, lay0)
                    via_dilation = partial_trace(outer(state, layout), set(lay0.labels))
                    worst_map = max(worst_map, float(np.abs(via_kraus - via_dilation.mat).max()))
    ok = worst_map <= 1e-12 and worst_complete <= 1e-12
    print(f"ACCEPTANCE 8 (operator sum vs dilation): {status(ok)} "
          f"map difference {worst_map:.3e}, completeness {worst_complete:.3e}")
    assert ok


def test_criterion_9_determinism_and_verify():
    cfg = SweepConfig()
    first = render_csv(sweep_table(cfg))
    second = render_csv(sweep_table(cfg))
    identical = first == second
    rc = verify_command(cfg)
    ok = identical and rc == 0
    print(f"ACCEPTANCE 9 (determinism and verify): {status(ok)} "
          f"byte-identical: {identical}, verify exit code {rc}")
    assert identical
    assert rc == 0
