"""Per-point complementarity reports and the identity checks they satisfy.

A report evaluates one (channel, x, p) triple: the initial pure state
x|0..0> + sqrt(1-x^2)|1..1> is dilated through the channel, every applicable
predictability / coherence / correlation measure of the resulting global
pure state is computed, and the residual of every identity the channel obeys
is recorded.  The engine evaluates a block at a time, one (kind, mu) over
a grid of x and p; :func:`ccr_report` is a grid of one x and one p.
Every quantity is measured on the dilated state; X-shaped pairs, phase damping's
A-E_A and A-E_B pairs and pure two-qubit states are read in closed form, and the
test suite, not the engine, pins the X shape and those pairs' zero coherence on A.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import _NO_DILATION, ChannelKind, ChannelSpec, _dilate, _REAL, _is_a, _kraus_stack
from .linalg import SubsystemLayout, _partial_transpose, qubits
from .measures import (
    PPT_TOL,
    _entropy_terms,
    _hs_coherence,
    _off_x,
    _qubit_eigenvalues,
    _sectors,
    _x_concurrence,
    _x_entries,
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
    """Kinds an identity is asserted for, its residual |LHS - RHS| over a block's
    measure columns, one per row, and its domain at a block's (kind, mu), x and p
    (numbers or row arrays): False where the identity does not apply to the (kind,
    mu), True where it holds on every row, or a mask of the rows it holds on."""

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


def initial_state(kind: ChannelKind, x) -> tuple[np.ndarray, SubsystemLayout]:
    """x|0..0> + sqrt(1-x^2)|1..1> on the kind's system layout, as real
    (float64) amplitudes: one state for a real number x (not a bool), one per
    entry (..., d) for a non-empty array of them; any other x, or one outside
    [0, 1] (NaN too), raises ValueError."""
    array = isinstance(x, np.ndarray) and issubclass(x.dtype.type, _REAL) and x.size
    lo, hi = (x.min(), x.max()) if array else (x, x)
    if not ((array or _is_a(x, _REAL)) and 0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    return _initial_state(kind, x)


def _initial_state(kind: ChannelKind, x) -> tuple[np.ndarray, SubsystemLayout]:
    """The states of :func:`initial_state` for an x checked where it entered,
    unchecked; x is widened to float64, which is exact."""
    x = np.asarray(x, dtype=float)
    labels = ("A", "B")[: kind.n_system_qubits]
    psi = np.zeros(x.shape + (2 ** len(labels),))
    psi[..., 0], psi[..., -1] = x, np.sqrt(1.0 - x * x)
    return psi, qubits(*labels)


#: The two-factor partitions of the global state a report measures, each
#: traced once; the first label is the factor a partial transpose acts on.
PAIRS: dict[str, tuple[str, str]] = {
    "AB": ("A", "B"),
    "AEA": ("A", "E_A"),
    "AEB": ("A", "E_B"),
    "EAEB": ("E_A", "E_B"),
}


#: Each phase damping sector column by its mask over (A, B, E_A, E_B), A's bit first.
_SECTOR_COLUMNS = {"sector_AB": 0b1100, "sector_ABEA": 0b1110, "sector_ABEB": 0b1101,
                   "sector_ABEAEB": 0b1111, "sector_EAEB": 0b0011, "sector_EA": 0b0010,
                   "sector_EB": 0b0001}


def _sector_columns(weights: np.ndarray) -> dict[str, np.ndarray]:
    """The sector_AB, ..., sector_EB columns of a two-qubit block: rows of its
    sector weights (15, P), row mask - 1 for each mask."""
    return {name: weights[mask - 1] for name, mask in _SECTOR_COLUMNS.items()}


@functools.lru_cache(maxsize=64)
def _gather(layout: SubsystemLayout, keeps: tuple[tuple[str, ...], ...]) -> np.ndarray:
    """Read-only indices (K, kept dim, rest dim) into the amplitudes of a
    ``layout`` state: entry [k, i, j] is the basis state whose factors in
    keeps[k] read i and whose other factors read j, both in layout order."""
    index = np.arange(layout.dim).reshape(layout.dims)
    tables = []
    for keep in keeps:
        axes = [layout.position(label) for label in keep]
        t = index.transpose([*axes, *(a for a in range(index.ndim) if a not in axes)])
        tables.append(t.reshape(math.prod(layout.dims[a] for a in axes), -1))
    table = np.stack(tables)
    table.setflags(write=False)
    return table


def _reduced(amplitudes: np.ndarray, layout: SubsystemLayout, *keeps: tuple[str, ...]) -> np.ndarray:
    """Reduced states (K, P, d, d) on each of K equal-dimension ``keeps`` of
    pure states (P, dim): M M^dag by one matmul, with each M the amplitudes
    gathered to (P, kept factors, the rest) by one cached table."""
    m = amplitudes[:, _gather(layout, keeps)].swapaxes(0, 1)
    return m @ m.conj().swapaxes(-1, -2)


#: The entries of a pair state rho (4, 4) the measure stage reads, each the
#: modulus of a sum of flat entries rho.flat[4 i + j] (a diagonal entry is
#: nonnegative): the diagonal (0-3), rho_03 and rho_12 (4, 5), the first and
#: second factors' marginals (a, d, b) (6-8, 9-11) and rho_01, rho_23 (12, 13).
_ENTRIES = ((0,), (5,), (10,), (15,), (3,), (6,), (0, 5), (10, 15), (2, 7),
            (0, 10), (5, 15), (1, 11), (1,), (11,))
#: Their 0/1 matrix (16, 14), for one product: a product by 0 or 1 is exact, so
#: each entry of no more than two terms has the bits of their direct sum.
_SELECT = np.array([[float(i in flat) for flat in _ENTRIES] for i in range(16)])
#: A two-qubit block's eigen-tables of Hermitian 2x2 blocks, columns (pair in
#: stack order, a, d, |b|) of entry indices: the A-B pair's X blocks {0, 3},
#: {1, 2} and marginals, then each pair's partially transposed blocks.  An
#: X-shaped pair's are its X blocks with the anti-diagonal moduli swapped (the
#: first table, for all X-shaped); else (phase damping) the A-E_A and A-E_B
#: pairs are their own transposes, with no coherence on A (m[:2, 2:] = 0),
#: blocks {0, 1} and {2, 3}, and the E_A-E_B pair is solved as a matrix.
_EIGEN_TABLES = tuple(
    np.array([(0, 0, 3, 4), (0, 1, 2, 5), (0, 6, 7, 8), (0, 9, 10, 11), *blocks]).T for blocks in (
        [*((k, 0, 3, 5) for k in range(4)), *((k, 1, 2, 4) for k in range(4))],
        [(0, 0, 3, 5), (1, 0, 1, 12), (2, 0, 1, 12), (0, 1, 2, 4), (1, 2, 3, 13), (2, 2, 3, 13)]))
for _table in (_SELECT, *_EIGEN_TABLES):
    _table.setflags(write=False)


@functools.lru_cache(maxsize=64)
def _plan(layout: SubsystemLayout):
    """How the blocks of ``layout`` are measured, built once and shared: the
    pairs of PAIRS it has, in stack order, the index of A-E_A (A's marginal
    is its first factor's), each pair's ``Cc_*`` column and each cross pair's
    (all but A-B) ``ppt_*`` column, and the eigen-tables with an A-B pair."""
    names = [name for name, pair in PAIRS.items() if set(pair) <= set(layout.labels)]
    aea = names.index("AEA")  # the cross pairs follow A-B, where the layout has it
    return (tuple(PAIRS[name] for name in names), aea, tuple(f"Cc_{name}" for name in names),
            tuple(f"ppt_{name}" for name in names[aea:]), _EIGEN_TABLES if aea else None)


def _measure_columns(amplitudes: np.ndarray, layout: SubsystemLayout, initial: np.ndarray):
    """Every measure column but the sector columns, as arrays over the block,
    of dilated states (R, dim), R = X * P rows x-major, and of the entries
    (a, d, b) (3, X) of A's X initial marginals, and the (K, R) smallest
    partial-transpose eigenvalues of the pair stack in stack order (A-B's first,
    where the layout has it).  The layout's pairs form one stack (K, R, 4, 4);
    each 2x2 block the measures read, marginal, X or transposed, is read from its entries."""
    pairs, aea, cc_columns, ppt_columns, eigen_tables = _plan(layout)
    stack = _reduced(amplitudes, layout, *pairs)
    entries = np.abs(stack.reshape(stack.shape[:2] + (16,)) @ _SELECT)  # (K, R, 14)
    # A's (a, d, |b|) and the initial marginals' over their x's P rows; each
    # measure sums in the order of the matrix measures (S_l = 1 - tr rho^2)
    initial = np.abs(initial).repeat(len(amplitudes) // initial.shape[1], 1)
    squares = np.concatenate([entries[aea, :, 6:9].T, initial]) ** 2
    a2, d2, b2 = squares.reshape(2, 3, -1).swapaxes(0, 1)  # (2, R) each, A's then the initial
    p_hs, c_hs, s_l = a2 + d2 - 0.5, 2.0 * b2, 1.0 - ((a2 + b2) + (b2 + d2))
    m = {"P_hs_A": p_hs[0], "C_hs_A": c_hs[0], "S_l_A": s_l[0],
         "P_hs_A_initial": p_hs[1], "C_hs_A_initial": c_hs[1], "S_l_initial": s_l[1]}
    m["C_global"] = 1.0 - np.square(np.square(np.abs(amplitudes))).sum(axis=-1)
    # correlated_coherence_hs of each pair; a qubit's HS coherence is 2|b|^2
    hs_joint = _hs_coherence(stack)
    hs_first, hs_second = 2.0 * entries[..., 8] ** 2, 2.0 * entries[..., 11] ** 2
    m.update(zip(cc_columns, hs_joint - hs_first - hs_second))
    ab_columns = {}
    if eigen_tables is not None:  # A-B entanglement is reported as a concurrence
        table = eigen_tables[bool(_off_x(stack[1:]).any())]
        lam = _qubit_eigenvalues(*entries[table[0], :, table[1:]])
        ppt_min = np.minimum(*lam[0, 4:].reshape(2, -1, lam.shape[-1]))  # per pair, two blocks
        if table is eigen_tables[1]:
            ppt_min = np.concatenate([ppt_min, np.linalg.eigvalsh(
                _partial_transpose(stack[3:], (2, 2), 0))[..., 0]])
        # each entropy sums its terms in ascending order of block and eigenvalue
        e = _entropy_terms(lam[:, :4])
        s_ab = -(((e[0, 0] + e[1, 0]) + e[0, 1]) + e[1, 1])
        s_a, s_b = -(e[0, 2:4] + e[1, 2:4])
        # the joint coherence of the pure global state is C_global
        local = hs_first + hs_second
        ab_columns = dict(
            Cc_ABE=m["C_global"] - (local[0] + local[3]), C_env=hs_joint[3],
            concurrence_AB=_x_concurrence(entries[0, :, :4], entries[0, :, 4], entries[0, :, 5]),
            mutual_info_AB=s_a + s_b - s_ab)
    else:
        # the one cross pair, A-E_A, is the pure global state c: its partial
        # transpose has spectrum {l1^2, l2^2, +-l1 l2} over its Schmidt
        # coefficients, and l1 l2 = |c00 c11 - c01 c10|
        c = amplitudes
        ppt_min = -np.abs(c[:, 0] * c[:, 3] - c[:, 1] * c[:, 2])[np.newaxis]
    m.update(zip(ppt_columns, (ppt_min[aea:] >= -PPT_TOL).astype(float)))
    m.update(ab_columns)
    return m, ppt_min


def _block_columns(kind: ChannelKind, mu: float, xs, ps: np.ndarray):
    """One (kind, mu) block over the grid of the x values ``xs`` (a number or
    an array (X,)) and the noise values ``ps`` (P,), evaluated as one stack
    of X * P rows, x-major: the initial states, their A marginals and the
    ``*_initial`` columns are computed once per x, the channel once per p.
    Returns the measure columns, the dilated amplitudes (X * P, dim), their
    layout, and the partial-transpose minima of the pair stack (A-B's first)
    the measures were taken on; every column is computed per row, so a row's
    values do not depend on its block.  Phase damping's sector columns are
    left to the readers that read them.  The block is evaluated as given: x,
    p and mu were checked, and bit flip's x pinned, where they entered
    (:func:`ccr_report`, the sweep configuration and walk).  The states of
    :func:`initial_state` are normalized, their isometry image keeps the norm,
    and each state reduced from it, M M^dag, is a density matrix by
    construction.  Each reader evaluates the rows of IDENTITIES it reads."""
    psi, sys_layout = _initial_state(kind, xs)
    amplitudes, layout = _dilate(_kraus_stack(kind, ps, mu), psi, sys_layout)
    c = psi.reshape(-1, psi.shape[-1]).T  # A's marginal (a, d, b): c1 = y on one qubit, 0 on two
    initial = c[[0, -1, 0]] * c[[0, -1, 1]]
    measures, ppt_min = _measure_columns(amplitudes, layout, initial)
    return measures, amplitudes, layout, ppt_min


def ccr_report(spec: ChannelSpec, x: float) -> CCRReport:
    """Evolve the initial state through the channel and measure everything:
    a block of the engine over a grid of one x and one p.

    ``x`` parameterizes the initial state and must be a real number in
    [0, 1] (not a bool); for the bit flip channel it is pinned to 1/sqrt(2),
    the only point the analysis is formulated for.  CADC with 0 < mu < 1
    raises ValueError: the mixture has no dilation to measure.
    """
    if not (_is_a(x, _REAL) and 0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if spec.mu not in (0.0, 1.0):
        raise ValueError(_NO_DILATION)
    x = BALANCED_X if spec.kind is ChannelKind.BFC else x
    ps = np.array([spec.p], dtype=float)  # widened to float64, as every x is
    columns, amplitudes, layout, _ = _block_columns(spec.kind, spec.mu, x, ps)
    if spec.kind is ChannelKind.PDC:
        columns.update(_sector_columns(_sectors(amplitudes, len(layout.labels))))
    measures = {name: v.item() for name, v in columns.items()}
    residuals = {ident: row.residual(measures) for ident, row in IDENTITIES.items()
                 if spec.kind in row.kinds}
    return CCRReport(spec, x, measures, residuals)


def _sudden_death_bisection(xs) -> np.ndarray:
    """Largest p with positive concurrence for each x of an array (any
    shape), bracketed by fifteen amplitude damping blocks of 17 points per x:
    each narrows every bracket 16-fold, to a width of 2^-60 after the last.
    A round dilates each x's state over its own bracket in one block and runs
    only the engine stages the A-B concurrence needs: the dilation and the
    A-B pair."""
    xs = np.asarray(xs, dtype=float)
    psi, sys_layout = _initial_state(ChannelKind.ADC, xs.ravel())
    rows = np.arange(xs.size)
    lo, hi = np.zeros(xs.size), np.ones(xs.size)
    for _ in range(15):  # the concurrence is positive at lo and not at hi
        ps = np.linspace(lo, hi, 17, axis=-1)
        amplitudes, layout = _dilate(_kraus_stack(ChannelKind.ADC, ps, 0.0), psi, sys_layout)
        ab = _reduced(amplitudes, layout, PAIRS["AB"])[0]
        alive = (_x_concurrence(*_x_entries(ab)) > 0.0).reshape(ps.shape)
        i = 16 - alive[:, ::-1].argmax(axis=-1)  # the last p alive
        lo, hi = ps[rows, i], ps[rows, i + 1]
    return (0.5 * (lo + hi)).reshape(xs.shape)


def sudden_death_point(x: float) -> float | None:
    """Noise value where amplitude damping kills the A-B entanglement.

    For x < 1/sqrt(2) the closed form x/sqrt(1-x^2) is returned after
    cross-validation against a bisection on the evolved state's concurrence
    (they must agree to 1e-8).  For x >= 1/sqrt(2) the concurrence stays
    positive on [0, 1) and the function returns None.
    """
    if not (_is_a(x, _REAL) and 0.0 < x < 1.0):
        raise ValueError(f"x must lie strictly inside (0, 1), got {x!r}")
    if x >= BALANCED_X:
        return None
    x = float(x)  # widened to float64, which is exact
    closed = x / math.sqrt(1.0 - x * x)
    bisected = float(_sudden_death_bisection(x))
    if abs(closed - bisected) > 1e-8:
        raise RuntimeError(
            f"sudden-death bisection {bisected!r} disagrees with closed form {closed!r}"
        )
    return closed
