"""Per-point complementarity reports and the identity checks they satisfy.

A report evaluates one (channel, x, p) triple: the initial pure state
x|0..0> + sqrt(1-x^2)|1..1> is dilated through the channel, every applicable
predictability / coherence / correlation measure of the resulting global
pure state is computed, and the residual of every identity the channel obeys
is recorded.  Reports are evaluated a block at a time, one (kind, mu, x)
over many p, by :func:`report_block`; :func:`ccr_report` is a block of one.
All quantities come from the numerical pipeline; closed forms appear only in
the test suite as expected values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .channels import ChannelKind, ChannelSpec, DilationResult, block_kind, dilate_block
from .linalg import SubsystemLayout, check_density, qubits
from .measures import (
    concurrence_x_state,
    correlated_coherence_hs,
    factor_marginals,
    hs_coherence,
    hs_predictability,
    is_ppt,
    linear_entropy,
    re_correlated_coherence,
    sector_decomposition,
)

#: Amplitude of the balanced superposition; the bit flip analysis is pinned here.
BALANCED_X = 1.0 / math.sqrt(2.0)


def is_balanced(x: float) -> bool:
    """Whether x is the balanced amplitude 1/sqrt(2), up to grid round-off."""
    return abs(x - BALANCED_X) <= 1e-12


class IdentityId(enum.Enum):
    """Identities asserted by the report pipeline.

    ``CCR_UNIVERSAL`` holds for every channel; the rest encode how each
    channel redistributes the initial entanglement entropy among the
    partitions of the global pure state.
    """

    CCR_UNIVERSAL = "ccr_universal"
    ADC_REDISTRIBUTION = "adc_redistribution"
    CADC_REDISTRIBUTION = "cadc_redistribution"
    CADC_ENV_COMPLEMENT = "cadc_env_complement"
    PDC_SUBTRACTION = "pdc_subtraction"
    PDC_NL_SUM = "pdc_nl_sum"
    BFC_FOUR_TERM = "bfc_four_term"
    PFC_COHERENCE_SPLIT = "pfc_coherence_split"
    THREE_HALVES = "three_halves"


@dataclass(frozen=True)
class Identity:
    """Kinds an identity is asserted for, the (spec, x) points where it
    holds, and its residual |LHS - RHS| over a report's measure columns."""

    kinds: tuple[ChannelKind, ...]
    residual: Callable[[dict[str, float]], float]
    domain: Callable[[ChannelSpec, float], bool] = lambda spec, x: True


#: Every identity, in the order reports list them: CCR_UNIVERSAL first, then
#: per kind its headline identity (reported as residual_channel_identity).
IDENTITIES: dict[IdentityId, Identity] = {
    # d_A = 2 throughout, so the pure-state budget of subsystem A is 1/2.
    IdentityId.CCR_UNIVERSAL: Identity(
        tuple(ChannelKind), lambda m: abs(m["P_hs_A"] + m["C_hs_A"] + m["S_l_A"] - 0.5)),
    IdentityId.ADC_REDISTRIBUTION: Identity(
        (ChannelKind.ADC,), lambda m: abs(m["S_l_A"] - (m["Cc_AB"] + m["Cc_AEA"] + m["Cc_AEB"]))),
    # The two CADC identities are those of the fully correlated map (mu = 1).
    IdentityId.CADC_REDISTRIBUTION: Identity(
        (ChannelKind.CADC,), lambda m: abs(m["S_l_A"] - (m["Cc_ABE"] - m["Cc_EAEB"])),
        lambda spec, x: spec.mu == 1.0),
    # Constant in p at the initial entanglement entropy (1/2 at x=1/sqrt2).
    IdentityId.CADC_ENV_COMPLEMENT: Identity(
        (ChannelKind.CADC,), lambda m: abs(m["Cc_EAEB"] + m["Cc_AB"] - m["S_l_initial"]),
        lambda spec, x: spec.mu == 1.0),
    IdentityId.PDC_SUBTRACTION: Identity(
        (ChannelKind.PDC,), lambda m: abs(m["S_l_A"] - (m["C_global"] - m["C_env"]))),
    IdentityId.PDC_NL_SUM: Identity(
        (ChannelKind.PDC,), lambda m: abs(
            m["sector_AB"] + m["sector_ABEA"] + m["sector_ABEB"] + m["sector_ABEAEB"]
            - m["S_l_initial"])),
    IdentityId.BFC_FOUR_TERM: Identity(
        (ChannelKind.BFC,),
        lambda m: abs(m["S_l_A"] - (m["Cc_AB"] + m["Cc_AEA"] + m["Cc_AEB"] - m["Cc_EAEB"]))),
    # For the sigma_y-branch kinds the A-E_A correlated coherence is
    # (1 + 2 x^2 (1-x^2)) S_l, which reaches 3/2 S_l only at x = 1/sqrt(2).
    IdentityId.THREE_HALVES: Identity(
        (ChannelKind.PFC, ChannelKind.BPFC, ChannelKind.DC),
        lambda m: abs(m["Cc_AEA"] - 1.5 * m["S_l_A"]),
        lambda spec, x: spec.kind is ChannelKind.PFC or is_balanced(x)),
    IdentityId.PFC_COHERENCE_SPLIT: Identity(
        (ChannelKind.PFC,), lambda m: abs(m["C_hs_A_initial"] - (m["C_hs_A"] + m["S_l_A"]))),
}

#: Identities applicable per channel kind besides CCR_UNIVERSAL, headline first.
APPLICABLE_IDENTITIES: dict[ChannelKind, tuple[IdentityId, ...]] = {
    kind: tuple(ident for ident, row in IDENTITIES.items() if kind in row.kinds)[1:]
    for kind in ChannelKind
}


@dataclass(frozen=True)
class CCRReport:
    """All measures and identity residuals for one (channel, x, p) point,
    with the dilated global state they were measured on."""

    channel: ChannelSpec
    x: float
    measures: dict[str, float]
    residuals: dict[IdentityId, float]
    state: DilationResult = field(compare=False)  # a function of (channel, x)

    @property
    def p(self) -> float:
        return self.channel.p


def initial_state(kind: ChannelKind, x: float) -> tuple[np.ndarray, SubsystemLayout]:
    """x|0..0> + sqrt(1-x^2)|1..1> on the kind's system layout."""
    labels = ("A", "B")[: kind.n_system_qubits]
    psi = np.zeros(2 ** len(labels), dtype=complex)
    psi[0], psi[-1] = x, math.sqrt(max(0.0, 1.0 - x * x))
    return psi, qubits(*labels)


LOCAL_COLUMNS = ("P_hs_A", "C_hs_A", "S_l_A")
INITIAL_COLUMNS = ("P_hs_A_initial", "C_hs_A_initial", "S_l_initial")


def local_measures(rho_a, names=LOCAL_COLUMNS) -> dict[str, float]:
    """Predictability, coherence and linear entropy of A's marginal (or of a
    stack of them), keyed by ``names``."""
    return dict(zip(names, (hs_predictability(rho_a), hs_coherence(rho_a), linear_entropy(rho_a))))


#: The two-factor partitions of the global state a report measures, each
#: traced once; the first label is the factor a partial transpose acts on.
PAIRS: dict[str, tuple[str, str]] = {
    "AB": ("A", "B"),
    "AEA": ("A", "E_A"),
    "AEB": ("A", "E_B"),
    "EAEB": ("E_A", "E_B"),
}


#: The coherence sectors reported for phase damping, by the factors they span.
SECTORS = (("A", "B"), ("A", "B", "E_A"), ("A", "B", "E_B"), ("A", "B", "E_A", "E_B"),
           ("E_A", "E_B"), ("E_A",), ("E_B",))


def _reduced(amplitudes: np.ndarray, layout: SubsystemLayout, keep: Sequence[str]) -> np.ndarray:
    """Reduced states (P, d, d) on ``keep`` of pure states (P, dim): M M^dag,
    with M the amplitudes reshaped to (P, kept factors, the rest)."""
    t = amplitudes.reshape((-1,) + layout.dims)
    axes = [1 + layout.position(label) for label in keep]
    rest = [a for a in range(1, t.ndim) if a not in axes]
    m = t.transpose([0, *axes, *rest])
    m = m.reshape(len(t), math.prod(layout.dims[a - 1] for a in axes), -1)
    return m @ m.conj().swapaxes(-1, -2)


def _measure_columns(kind: ChannelKind, amplitudes: np.ndarray, layout: SubsystemLayout):
    """Every measure column, as arrays over the block, of dilated states
    (P, dim), and the pair stacks they were measured on: each pair of
    ``PAIRS`` the layout has is formed once as a stack, every measure runs
    on the stacks and every one-factor marginal is traced from a pair."""
    pairs = {
        name: _reduced(amplitudes, layout, pair)
        for name, pair in PAIRS.items()
        if set(pair) <= set(layout.labels)
    }
    rho_a = factor_marginals(pairs["AEA"], (2, 2))[0]
    check_density(np.stack(list(pairs.values())))
    check_density(rho_a)
    m = {**local_measures(rho_a), "C_global": 1.0 - (np.abs(amplitudes) ** 4).sum(axis=-1)}
    for name, rho in pairs.items():
        m[f"Cc_{name}"] = correlated_coherence_hs(rho, PAIRS[name])
        if name != "AB":  # A-B entanglement is reported as a concurrence
            m[f"ppt_{name}"] = is_ppt(rho, PAIRS[name][0]).astype(float)
    if "AB" in pairs:
        # the joint coherence of the pure global state is C_global
        singles = factor_marginals(pairs["AB"], (2, 2)) + factor_marginals(pairs["EAEB"], (2, 2))
        m.update(
            Cc_ABE=m["C_global"] - sum(hs_coherence(rho) for rho in singles),
            C_env=hs_coherence(pairs["EAEB"]),
            concurrence_AB=concurrence_x_state(pairs["AB"]),
            mutual_info_AB=re_correlated_coherence(pairs["AB"], PAIRS["AB"]),
        )
    if kind is ChannelKind.PDC:
        sectors = sector_decomposition(amplitudes, layout)
        for labels in SECTORS:  # sector_AB, ..., sector_EB
            m["sector_" + "".join(labels).replace("_", "")] = sectors.get(frozenset(labels), 0.0)
    return m, pairs


def _block_columns(specs: Sequence[ChannelSpec], x: float):
    """The arrays behind :func:`report_block`: the x evaluated (pinned for
    the bit flip channel), the measure and identity-residual columns, the
    dilated amplitudes (P, dim), their layout and the stacks of ``PAIRS``
    the measures were taken on."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    kind = block_kind(specs)
    if kind is ChannelKind.BFC:
        x = BALANCED_X

    psi, sys_layout = initial_state(kind, x)
    amplitudes, layout = dilate_block(specs, psi, sys_layout)
    measures, pairs = _measure_columns(kind, amplitudes, layout)
    initial = _reduced(psi[np.newaxis], sys_layout, ("A",))
    check_density(initial)
    measures.update(local_measures(initial[0], INITIAL_COLUMNS))
    residuals = {
        ident: row.residual(measures)
        for ident, row in IDENTITIES.items()
        if kind in row.kinds
    }
    return x, measures, residuals, amplitudes, layout, pairs


def report_block(specs: Sequence[ChannelSpec], x: float) -> list[CCRReport]:
    """Reports at one x for specs of one channel kind, evaluated as one stack.

    ``x`` parameterizes the initial state and must lie in [0, 1]; for the
    bit flip channel it is pinned to 1/sqrt(2), the only point the analysis
    is formulated for.  Every reduced state formed is checked to be a
    density matrix.  Every identity of the kind gets a residual, also where
    the point lies outside the identity's domain.
    """
    x, measures, residuals, amplitudes, layout, _ = _block_columns(specs, x)

    def rows(columns: dict) -> list[dict]:
        values = [v.tolist() if np.ndim(v) else [float(v)] * len(specs) for v in columns.values()]
        return [dict(zip(columns, row)) for row in zip(*values)]

    return [
        CCRReport(spec, x, m, r, DilationResult(state, layout))
        for spec, m, r, state in zip(specs, rows(measures), rows(residuals), amplitudes)
    ]


def ccr_report(spec: ChannelSpec, x: float) -> CCRReport:
    """Evolve the initial state through the channel and measure everything.

    A block of one (see :func:`report_block`): ``x`` must lie in [0, 1] and
    is pinned to 1/sqrt(2) for the bit flip channel.
    """
    return report_block((spec,), x)[0]


def check_identity(identity: IdentityId, report: CCRReport) -> float:
    """Residual |LHS - RHS| of one identity, from the report's measures.

    Raises ValueError when the identity does not apply to the report's
    channel kind.
    """
    row, kind = IDENTITIES[identity], report.channel.kind
    if kind not in row.kinds:
        raise ValueError(f"{identity.value} does not apply to {kind.value}")
    return row.residual(report.measures)


def _sudden_death_bisection(x: float) -> float:
    """Largest p with positive concurrence, bracketed by ten amplitude
    damping blocks of 65 points: each narrows the bracket 64-fold, to a
    width of 2^-60 after the last."""
    lo, hi = 0.0, 1.0
    for _ in range(10):  # the concurrence is positive at lo and not at hi
        ps = np.linspace(lo, hi, 65).tolist()
        _, m, *_ = _block_columns([ChannelSpec(ChannelKind.ADC, p) for p in ps], x)
        i = int(np.flatnonzero(m["concurrence_AB"] > 0.0)[-1])
        lo, hi = ps[i], ps[i + 1]
    return 0.5 * (lo + hi)


def sudden_death_point(x: float) -> float | None:
    """Noise value where amplitude damping kills the A-B entanglement.

    For x < 1/sqrt(2) the closed form x/sqrt(1-x^2) is returned after
    cross-validation against a bisection on the evolved state's concurrence
    (they must agree to 1e-8).  For x >= 1/sqrt(2) the concurrence stays
    positive on [0, 1) and the function returns None.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie strictly inside (0, 1), got {x!r}")
    if x >= BALANCED_X:
        return None
    closed = x / math.sqrt(1.0 - x * x)
    bisected = _sudden_death_bisection(x)
    if abs(closed - bisected) > 1e-8:
        raise RuntimeError(
            f"sudden-death bisection {bisected!r} disagrees with closed form {closed!r}"
        )
    return closed
