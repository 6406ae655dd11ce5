"""Per-point complementarity reports and the identity checks they satisfy.

A report evaluates one (channel, x, p) triple: the initial pure state
x|0..0> + sqrt(1-x^2)|1..1> is dilated through the channel, every applicable
predictability / coherence / correlation measure of the resulting global
pure state is computed, and the residual of every identity the channel obeys
is recorded.  The engine evaluates a block at a time, one (kind, mu, x)
over an array of p; :func:`ccr_report` is a block of one.
All quantities come from the numerical pipeline; closed forms appear only in
the test suite as expected values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import ChannelKind, ChannelSpec, dilate_block
from .linalg import SubsystemLayout, qubits
from .measures import (
    PPT_TOL,
    _entropy,
    _ppt_min,
    concurrence_x_state,
    factor_marginals,
    hs_coherence,
    hs_predictability,
    linear_entropy,
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
    """Kinds an identity is asserted for, its residual |LHS - RHS| over a
    block's measure columns, and its domain: given a block's (kind, mu, x)
    and its p, or an array of them, whether the identity holds there (a bool
    for the whole block or a mask over p)."""

    kinds: tuple[ChannelKind, ...]
    residual: Callable[[dict[str, float]], float]
    domain: Callable[[ChannelKind, float, float, np.ndarray], bool | np.ndarray] = (
        lambda kind, mu, x, p: True)


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
        lambda kind, mu, x, p: mu == 1.0),
    # Constant in p at the initial entanglement entropy (1/2 at x=1/sqrt2).
    IdentityId.CADC_ENV_COMPLEMENT: Identity(
        (ChannelKind.CADC,), lambda m: abs(m["Cc_EAEB"] + m["Cc_AB"] - m["S_l_initial"]),
        lambda kind, mu, x, p: mu == 1.0),
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
        lambda kind, mu, x, p: kind is ChannelKind.PFC or is_balanced(x)),
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
    """All measures and identity residuals for one (channel, x, p) point."""

    channel: ChannelSpec
    x: float
    measures: dict[str, float]
    residuals: dict[IdentityId, float]

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


def local_measures(rho_a: np.ndarray, initial: np.ndarray) -> dict[str, np.ndarray]:
    """Predictability, coherence and linear entropy of A's marginals (P, 2, 2)
    and of the initial marginal (1, 2, 2), measured as one stack."""
    both = np.concatenate([rho_a, initial])
    values = (hs_predictability(both), hs_coherence(both), linear_entropy(both))
    return {**{name: v[:-1] for name, v in zip(LOCAL_COLUMNS, values)},
            **{name: v[-1] for name, v in zip(INITIAL_COLUMNS, values)}}


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


def _sector_columns(sectors: dict, rows: int) -> dict[str, np.ndarray]:
    """The sector_AB, ..., sector_EB columns of a block of ``rows`` states
    from its :func:`sector_decomposition` weights, zero where a sector of
    SECTORS has no weight."""
    return {"sector_" + "".join(labels).replace("_", ""): sectors.get(
        frozenset(labels), np.zeros(rows)) for labels in SECTORS}


def _reduced(amplitudes: np.ndarray, layout: SubsystemLayout, *keeps: Sequence[str]) -> np.ndarray:
    """Reduced states (K, P, d, d) on each of K equal-dimension ``keeps`` of
    pure states (P, dim): M M^dag by one matmul, with each M the amplitudes
    reshaped to (P, kept factors, the rest)."""
    t = amplitudes.reshape((-1,) + layout.dims)
    ms = []
    for keep in keeps:
        axes = [1 + layout.position(label) for label in keep]
        m = t.transpose([0, *axes, *(a for a in range(1, t.ndim) if a not in axes)])
        ms.append(m.reshape(len(t), math.prod(t.shape[a] for a in axes), -1))
    m = np.stack(ms)
    return m @ m.conj().swapaxes(-1, -2)


def _measure_columns(amplitudes: np.ndarray, layout: SubsystemLayout, initial: np.ndarray):
    """Every measure column but the sector columns, as arrays over the block,
    of dilated states (P, dim) and of the initial marginal of A (1, 2, 2),
    the pair stacks the measures were taken on and the cross pairs' (3, P)
    smallest partial-transpose eigenvalues.  The pairs of ``PAIRS`` the
    layout has form one stack (K, P, 4, 4) and each measure runs once on it;
    its one-factor marginals are traced once and give A's marginal, the
    Cc_*, Cc_ABE and the A-B mutual information."""
    names = [name for name, pair in PAIRS.items() if set(pair) <= set(layout.labels)]
    stack = _reduced(amplitudes, layout, *(PAIRS[name] for name in names))
    pairs = dict(zip(names, stack))
    firsts, seconds = factor_marginals(stack, (2, 2))
    m = local_measures(firsts[names.index("AEA")], initial)
    m["C_global"] = 1.0 - (np.abs(amplitudes) ** 4).sum(axis=-1)
    # correlated_coherence_hs of each pair, from the marginals traced above
    hs_first, hs_second = hs_coherence(firsts), hs_coherence(seconds)
    m.update(zip([f"Cc_{name}" for name in names], hs_coherence(stack) - hs_first - hs_second))
    # A-B entanglement is reported as a concurrence; AB, where present, is first
    cross = int("AB" in pairs)
    cross_min = _ppt_min(stack[cross:])
    m.update(zip([f"ppt_{name}" for name in names[cross:]], (cross_min >= -PPT_TOL).astype(float)))
    if "AB" in pairs:
        # the joint coherence of the pure global state is C_global
        local = hs_first + hs_second
        # the mutual information S(A) + S(B) - S(AB), from the marginals traced above
        s_a, s_b = _entropy(np.stack([firsts[0], seconds[0]]))
        m.update(
            Cc_ABE=m["C_global"] - (local[0] + local[names.index("EAEB")]),
            C_env=hs_coherence(pairs["EAEB"]),
            concurrence_AB=concurrence_x_state(pairs["AB"]),
            mutual_info_AB=s_a + s_b - _entropy(pairs["AB"]),
        )
    return m, pairs, cross_min


def _block_columns(kind: ChannelKind, mu: float, x: float, ps: np.ndarray):
    """One (kind, mu, x) block over the noise values ``ps``, evaluated as one
    stack: the x evaluated (see :func:`ccr_report`), the measure columns, the
    dilated amplitudes (P, dim), their layout, and the pair stacks and
    cross-pair partial-transpose minima the measures were taken on.  Phase
    damping's sector columns are left to the readers that read them.
    The input state and the dilated amplitudes are checked (by
    :func:`dilate_block`); each state reduced from them is M M^dag of
    normalized amplitudes, a density matrix by construction, and is not
    checked again.  Each reader evaluates the rows of IDENTITIES it reads."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if kind is ChannelKind.BFC:
        x = BALANCED_X

    psi, sys_layout = initial_state(kind, x)
    amplitudes, layout = dilate_block(kind, ps, mu, psi, sys_layout)
    initial = _reduced(psi[np.newaxis], sys_layout, ("A",))[0]
    measures, pairs, cross_min = _measure_columns(amplitudes, layout, initial)
    return x, measures, amplitudes, layout, pairs, cross_min


def ccr_report(spec: ChannelSpec, x: float) -> CCRReport:
    """Evolve the initial state through the channel and measure everything:
    a block of one of the engine.

    ``x`` parameterizes the initial state and must lie in [0, 1]; for the
    bit flip channel it is pinned to 1/sqrt(2), the only point the analysis
    is formulated for.
    """
    x, columns, amplitudes, layout, *_ = _block_columns(spec.kind, spec.mu, x, np.array([spec.p]))
    if spec.kind is ChannelKind.PDC:
        columns.update(_sector_columns(sector_decomposition(amplitudes, layout), 1))
    measures = {name: float(v[0]) if np.ndim(v) else float(v) for name, v in columns.items()}
    residuals = {ident: row.residual(measures) for ident, row in IDENTITIES.items()
                 if spec.kind in row.kinds}
    return CCRReport(spec, x, measures, residuals)


def _sudden_death_bisection(x: float) -> float:
    """Largest p with positive concurrence, bracketed by ten amplitude
    damping blocks of 65 points: each narrows the bracket 64-fold, to a
    width of 2^-60 after the last.  A block runs only the engine stages the
    A-B concurrence needs: the dilation and the A-B pair."""
    psi, sys_layout = initial_state(ChannelKind.ADC, x)
    lo, hi = 0.0, 1.0
    for _ in range(10):  # the concurrence is positive at lo and not at hi
        ps = np.linspace(lo, hi, 65)
        amplitudes, layout = dilate_block(ChannelKind.ADC, ps, 0.0, psi, sys_layout)
        ab = _reduced(amplitudes, layout, PAIRS["AB"])[0]
        i = int(np.flatnonzero(concurrence_x_state(ab) > 0.0)[-1])
        lo, hi = ps[i], ps[i + 1]
    return float(0.5 * (lo + hi))


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
