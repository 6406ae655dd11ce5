"""Coherence, predictability, entropy, correlation and entanglement measures.

Every measure takes a matrix or a stack (..., d, d) of them, as anything numpy
reads as an array (a DensityOperator too), and gives one value per matrix.
Coherences are taken in the computational product basis; entropies in bits.
A matrix measure raises ValueError for a non-square, non-finite or
non-Hermitian input and calls an unchecked kernel (_hs_coherence, ...), which
the tests hold the engine's entry-table reads to.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .linalg import SubsystemLayout, _hermitian, _partial_trace, _partial_transpose, check_norms

#: The largest off-X modulus :func:`concurrence_x_state` accepts as round-off.
X_STATE_TOL = 1e-12

#: The partial transpose of a PPT state has no eigenvalue below -PPT_TOL.
PPT_TOL = 1e-10


def _hs_coherence(m: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt coherence of a stack (..., d, d), unchecked."""
    abs2 = np.abs(m) ** 2
    d = abs2.shape[-1]
    flat = abs2.reshape(abs2.shape[:-2] + (d * d,))
    flat[..., :: d + 1] = 0.0  # the diagonal
    return flat.sum(axis=-1)


def _hs_predictability(m: np.ndarray) -> np.ndarray:
    """Population imbalance of a stack (..., d, d), unchecked."""
    diag = m.diagonal(0, -2, -1).real
    return (diag**2).sum(axis=-1) - 1.0 / m.shape[-1]


def _linear_entropy(m: np.ndarray) -> np.ndarray:
    """1 - Tr m^2 of a stack (..., d, d), unchecked."""
    return 1.0 - np.einsum("...ij,...ji->...", m, m).real


def hs_coherence(rho):
    """Hilbert-Schmidt (l2) coherence: sum of squared off-diagonal moduli."""
    return _hs_coherence(_hermitian(rho))


def hs_predictability(rho):
    """Population imbalance sum_j rho_jj^2 - 1/d."""
    return _hs_predictability(_hermitian(rho))


def linear_entropy(rho):
    """1 - Tr rho^2: mixedness, and for a subsystem of a pure global state
    its correlation with everything else."""
    return _linear_entropy(_hermitian(rho))


def _joint_state(joint, blocks: Sequence[str]) -> np.ndarray:
    """``joint`` checked as by :func:`_hermitian` and for the ``blocks`` qubits' dimension."""
    m, d = _hermitian(joint), 2 ** len(blocks)
    if m.shape[-1] != d:
        raise ValueError(f"{len(blocks)} blocks need a state of dimension {d}, got shape {m.shape}")
    return m


def factor_marginals(joint: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """The one-factor marginals of a stack of joint states (..., D, D) over
    factors of dimensions ``dims``, each traced from the joint."""
    return [_partial_trace(joint, dims, [k]) for k in range(len(dims))]


def correlated_coherence_hs(joint, blocks: Sequence[str]):
    """Joint coherence of the named qubits minus their local coherences.

    ``joint`` is the state of the ``blocks`` qubits, in their order, or a
    stack of them; it is compared against each one-qubit marginal, traced
    from it.  Two blocks give the usual bipartite correlated coherence; more
    blocks subtract every local coherence from the joint one.  Raises
    ValueError when the dimension of ``joint`` is not 2**len(blocks).
    """
    if len(blocks) == 0:
        raise ValueError("correlated coherence needs at least one block")
    joint = _joint_state(joint, blocks)
    total = _hs_coherence(joint)
    for marginal in factor_marginals(joint, (2,) * len(blocks)):
        total = total - _hs_coherence(marginal)
    return total


#: Entries off the diagonal and the anti-diagonal of a two-qubit matrix.
_X_OFF = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def _off_x(m: np.ndarray) -> np.ndarray:
    """The entries off the diagonal and anti-diagonal of a stack (..., 4, 4):
    all zero for an X state."""
    return m[..., _X_OFF]


#: The signs of the lower and upper eigenvalue of a Hermitian 2x2 block.
_SIGNS = np.array([-1.0, 1.0])
_SIGNS.setflags(write=False)


def _qubit_eigenvalues(a, d, modulus):
    """Eigenvalues (2, ...), lower then upper, of Hermitian 2x2 blocks with
    real diagonal (a, d) and off-diagonal entries of the given modulus."""
    mean, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), modulus)
    return mean + np.multiply.outer(_SIGNS, radius)


def _x_entries(m: np.ndarray):
    """The diagonal (..., 4) and moduli |m_03|, |m_12| of a stack (..., 4, 4) of X
    states, the X closed forms' input, unchecked: the off-X entries are not read."""
    return m.diagonal(0, -2, -1).real, np.abs(m[..., 0, 3]), np.abs(m[..., 1, 2])


def _x_blocks(diag, a03, a12):
    """Eigenvalues (lower, upper, lower, upper) of the {0, 3} and {1, 2} X blocks."""
    return (*_qubit_eigenvalues(diag[..., 0], diag[..., 3], a03),
            *_qubit_eigenvalues(diag[..., 1], diag[..., 2], a12))


def _x_concurrence(diag, a03, a12):
    """Concurrence of X states (Wootters, PRL 80, 2245 (1998))."""
    diag = np.maximum(diag, 0.0)
    roots = np.sqrt(diag[..., :2] * diag[..., 3:1:-1])  # sqrt(d0 d3), sqrt(d1 d2)
    lam = np.maximum(a03 - roots[..., 1], a12 - roots[..., 0])
    # not np.fmax(lam, 0.0): numpy's scalar loop keeps a -0.0 and lets a
    # signaling NaN through, which this form maps to +0.0
    return 2.0 * np.where(lam > 0.0, lam, 0.0)


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each of a Hermitian stack (..., d, d),
    unchecked: a qubit's in closed form, any other by eigvalsh."""
    if m.shape[-1] != 2:
        return np.linalg.eigvalsh(m)
    lam = _qubit_eigenvalues(m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 0, 1]))
    return np.stack(lam, axis=-1)


def _ppt_min(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose on the first qubit of each
    of a Hermitian stack (..., 4, 4), unchecked; an exact X state's is not
    formed (it has the same 2x2 blocks with the anti-diagonal moduli swapped)."""
    if _off_x(m).any():
        return np.linalg.eigvalsh(_partial_transpose(m, (2, 2), 0))[..., 0]
    diag, a03, a12 = _x_entries(m)
    return np.minimum(*_x_blocks(diag, a12, a03)[::2])


def _entropy_terms(lam: np.ndarray) -> np.ndarray:
    """lam log2 lam of each eigenvalue, round-off negatives clamped to 0: an
    entropy is minus their sum over a spectrum."""
    lam = np.maximum(lam, 0.0)
    return lam * np.log2(lam + (lam == 0.0))  # log2 1 = 0 at a zero eigenvalue


def von_neumann_entropy(rho):
    """-sum_i lam_i log2 lam_i with round-off negatives clamped to zero.

    Raises ValueError for a non-square, non-finite or non-Hermitian matrix.
    """
    return -_entropy_terms(_spectrum(_hermitian(rho))).sum(axis=-1)


def re_correlated_coherence(joint, blocks: Sequence[str]):
    """Relative-entropy correlated coherence of two qubits.

    Basis independent and equal to the quantum mutual information
    S(X) + S(Y) - S(XY); only defined here for exactly two blocks.
    ``joint`` is read as in :func:`correlated_coherence_hs`.
    """
    if len(blocks) != 2:
        raise ValueError(f"expected exactly two blocks, got {len(blocks)}")
    joint = _joint_state(joint, blocks)
    s_x, s_y = von_neumann_entropy(np.stack(factor_marginals(joint, (2, 2))))
    return s_x + s_y - von_neumann_entropy(joint)


def concurrence_x_state(rho):
    """Closed-form concurrence 2 max(0, L1, L2) for a two-qubit X state.

    L1 = |rho_14| - sqrt(rho_22 rho_33), L2 = |rho_23| - sqrt(rho_11 rho_44).
    Raises ValueError unless the input is finite, Hermitian, 4x4 and X-shaped
    (the formula would be silently wrong), naming the largest off-X modulus.
    """
    m = _hermitian(rho)
    if m.shape[-1] != 4:
        raise ValueError(f"X-state concurrence needs a two-qubit state, dim {m.shape[-1]}")
    if (worst := float(np.abs(_off_x(m)).max())) > X_STATE_TOL:
        raise ValueError(f"not an X state: entry of modulus {worst!r} outside diagonal/anti-diagonal")
    return _x_concurrence(*_x_entries(m))


def ppt_min_eigenvalue(rho):
    """Smallest eigenvalue of the partial transpose (on either qubit: the
    spectrum is the same) of a two-qubit state or of each of a stack
    (..., 4, 4).  Raises ValueError unless the input is finite, Hermitian, 4x4."""
    m = _hermitian(rho)
    if m.shape[-1] != 4:
        raise ValueError(f"PPT test needs a two-qubit state, dim {m.shape[-1]}")
    return _ppt_min(m)


def is_ppt(rho):
    """Whether the partial transpose is positive: ``ppt_min_eigenvalue(rho) >= -PPT_TOL``."""
    return ppt_min_eigenvalue(rho) >= -PPT_TOL


@functools.lru_cache(maxsize=64)
def _mask_table(n: int) -> np.ndarray:
    """The read-only (2^n - 1, 2^n) flip table of n qubits: row mask - 1 is
    index ^ mask, for each mask 1 .. 2^n - 1 in order."""
    flips = np.arange(2**n) ^ np.arange(1, 2**n)[:, np.newaxis]
    flips.setflags(write=False)
    return flips


def sector_decomposition(psi, layout: SubsystemLayout) -> dict[frozenset[str], np.ndarray]:
    """Coherence of a pure qubit state |psi><psi|, or of each of a stack
    (..., dim), split by the factors each term spans.

    Maps a set of labels to the summed weight 2|c_a|^2|c_b|^2 of all basis
    pairs (a, b) whose multi-indices differ exactly on those labels, i.e.
    sum_a |c_a|^2 |c_(a xor mask)|^2 for the mask of those qubits (bit n-1-k
    of a mask is factor k).  Lists only sets with a pair of nonzero
    amplitudes (in some state of a stack), in mask order; the weights sum to
    the Hilbert-Schmidt coherence of the projector.
    """
    psi = np.array(psi, dtype=complex)
    if set(layout.dims) != {2}:
        raise ValueError(f"sector weights need a qubit layout, got dims {layout.dims}")
    if psi.shape[-1] != layout.dim:
        raise ValueError(f"state dimension {psi.shape[-1]} != layout dimension {layout.dim}")
    check_norms(psi)
    n, weights = len(layout.labels), _sectors(psi, len(layout.labels))
    nonzero = (psi != 0.0).reshape(-1, layout.dim)
    present = (nonzero[:, np.newaxis] & nonzero[:, _mask_table(n)]).any(axis=(0, 2))
    return {frozenset(lab for k, lab in enumerate(layout.labels) if mask >> (n - 1 - k) & 1):
            weights[mask - 1] for mask in (np.flatnonzero(present) + 1).tolist()}


def _sectors(psi: np.ndarray, n: int) -> np.ndarray:
    """Sector weights (2^n - 1, ...) of normalized n-qubit states (..., 2^n),
    unchecked: row mask - 1 is the weight of that mask, +0.0 where no pair of
    nonzero amplitudes differs by it."""
    prob = np.abs(psi) ** 2
    # one (..., 2^n - 1, 2^n) temporary, multiplied in place: np.take lays it
    # out C-contiguous, so each sum reduces a contiguous run of 2^n products;
    # a fancy-indexed gather has a strided last axis and would sum in another order
    terms = np.take(prob, _mask_table(n), axis=-1)
    terms *= prob[..., np.newaxis, :]
    weights = terms.sum(axis=-1)
    return weights.transpose(-1, *range(weights.ndim - 1))  # the mask axis first
