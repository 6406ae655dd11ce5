"""Coherence, predictability, entropy, correlation and entanglement measures.

All coherence-type quantities are evaluated in the fixed computational
product basis of the operator's layout.  Entropies use log base 2.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import (
    DensityOperator,
    SubsystemLayout,
    _partial_trace,
    _partial_transpose,
    check_norms,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
)

X_STATE_TOL = 1e-12

#: The partial transpose of a PPT state has no eigenvalue below -PPT_TOL.
PPT_TOL = 1e-10


def _mat(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)


def hs_coherence(rho):
    """Hilbert-Schmidt (l2) coherence: sum of squared off-diagonal moduli.

    Like every measure here, it takes a DensityOperator or a stack of
    matrices (..., d, d), and a stack gives one value per matrix.
    """
    abs2 = np.abs(_mat(rho)) ** 2
    d = abs2.shape[-1]
    flat = abs2.reshape(abs2.shape[:-2] + (d * d,))
    flat[..., :: d + 1] = 0.0  # the diagonal
    return flat.sum(axis=-1)


def hs_predictability(rho):
    """Population imbalance sum_j rho_jj^2 - 1/d."""
    m = _mat(rho)
    diag = m.diagonal(0, -2, -1).real
    return (diag**2).sum(axis=-1) - 1.0 / m.shape[-1]


def linear_entropy(rho):
    """1 - Tr rho^2: mixedness, and for a subsystem of a pure global state
    its correlation with everything else."""
    m = _mat(rho)
    return 1.0 - np.einsum("...ij,...ji->...", m, m).real


def _joint(rho, blocks: Sequence[str]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The joint state of ``blocks`` and its factor dimensions: traced from a
    DensityOperator, or ``rho`` itself, a stack of states of those qubits."""
    if isinstance(rho, DensityOperator):
        joint = partial_trace(rho, blocks)
        return joint.mat, joint.layout.dims
    return np.asarray(rho), (2,) * len(blocks)


def factor_marginals(joint: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """The one-factor marginals of a stack of joint states (..., D, D) over
    factors of dimensions ``dims``, each traced from the joint."""
    return [_partial_trace(joint, dims, [k]) for k in range(len(dims))]


def correlated_coherence_hs(rho_global, blocks: Sequence[str]):
    """Joint coherence of the named subsystems minus their local coherences.

    ``blocks`` is a sequence of single subsystem labels; the joint reduced
    state over all of them is compared against each one-label marginal,
    traced from the joint, so passing the joint reduced state is free.  Two
    blocks give the usual bipartite correlated coherence; more blocks
    subtract every single-label local coherence from the joint one.  An
    array ``rho_global`` is taken as that joint state of the ``blocks``
    qubits, in their order, or a stack of them.
    """
    if len(blocks) == 0:
        raise ValueError("correlated coherence needs at least one block")
    joint, dims = _joint(rho_global, blocks)
    total = hs_coherence(joint)
    for marginal in factor_marginals(joint, dims):
        total = total - hs_coherence(marginal)
    return total


def von_neumann_entropy(rho):
    """-sum_i lam_i log2 lam_i with round-off negatives clamped to zero."""
    lam = np.clip(hermitian_eigenvalues(_mat(rho)), 0.0, None)
    return -(lam * np.log2(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)


def re_correlated_coherence(rho_global, blocks: Sequence[str]):
    """Relative-entropy correlated coherence of two subsystems.

    Basis independent and equal to the quantum mutual information
    S(X) + S(Y) - S(XY); only defined here for exactly two blocks.  The
    marginals are traced from the joint, so passing the joint state, or a
    stack of them as in :func:`correlated_coherence_hs`, is free.
    """
    if len(blocks) != 2:
        raise ValueError(f"expected exactly two blocks, got {len(blocks)}")
    joint, dims = _joint(rho_global, blocks)
    s_joint = von_neumann_entropy(joint)
    s_locals = sum(von_neumann_entropy(m) for m in factor_marginals(joint, dims))
    return s_locals - s_joint


_X_OFF = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def concurrence_x_state(rho):
    """Closed-form concurrence 2 max(0, L1, L2) for a two-qubit X state.

    L1 = |rho_14| - sqrt(rho_22 rho_33), L2 = |rho_23| - sqrt(rho_11 rho_44).
    Raises ValueError when a matrix is not X-shaped (the formula would be
    silently wrong), naming the largest off-X modulus of the stack.
    """
    m = _mat(rho)
    if m.shape[-1] != 4:
        raise ValueError(f"X-state concurrence needs a two-qubit state, dim {m.shape[-1]}")
    worst = float(np.abs(m[..., _X_OFF]).max())
    if worst > X_STATE_TOL:
        raise ValueError(
            f"not an X state: entry of modulus {worst!r} outside diagonal/anti-diagonal"
        )
    diag = np.clip(m.diagonal(0, -2, -1).real, 0.0, None)
    lam1 = np.abs(m[..., 0, 3]) - np.sqrt(diag[..., 1] * diag[..., 2])
    lam2 = np.abs(m[..., 1, 2]) - np.sqrt(diag[..., 0] * diag[..., 3])
    lam = np.maximum(lam1, lam2)
    return 2.0 * np.where(lam > 0.0, lam, 0.0)


def ppt_min_eigenvalue(rho, subsystem: str):
    """Smallest eigenvalue of the partial transpose across ``subsystem``.

    An array ``rho`` is a two-qubit state, or a stack (..., 4, 4) of them,
    with ``subsystem`` as its first qubit.
    """
    if isinstance(rho, DensityOperator):
        pt = partial_transpose(rho, subsystem)
    else:
        pt = _partial_transpose(np.asarray(rho), (2, 2), 0)
    return hermitian_eigenvalues(pt)[..., 0]


def is_ppt(rho, subsystem: str):
    """Positivity of the partial transpose across ``subsystem`` vs the rest,
    up to ``PPT_TOL``; ``rho`` as in :func:`ppt_min_eigenvalue`."""
    return ppt_min_eigenvalue(rho, subsystem) >= -PPT_TOL


def sector_decomposition(psi, layout: SubsystemLayout) -> dict[frozenset[str], np.ndarray]:
    """Coherence of a pure qubit state |psi><psi|, or of each of a stack
    (..., dim), split by the factors each term spans.

    Maps a set of labels to the summed weight 2|c_a|^2|c_b|^2 of all basis
    pairs (a, b) whose multi-indices differ exactly on those labels, i.e.
    sum_a |c_a|^2 |c_(a xor mask)|^2 for the mask of those qubits.  Lists
    only sets with a pair of nonzero amplitudes (in some state of a stack);
    the weights sum to the Hilbert-Schmidt coherence of the projector.
    """
    psi = np.array(psi, dtype=complex)
    if set(layout.dims) != {2}:
        raise ValueError(f"sector weights need a qubit layout, got dims {layout.dims}")
    if psi.shape[-1] != layout.dim:
        raise ValueError(f"state dimension {psi.shape[-1]} != layout dimension {layout.dim}")
    check_norms(psi)
    n, index = len(layout.dims), np.arange(layout.dim)
    prob = np.abs(psi) ** 2
    nonzero = (psi != 0.0).reshape(-1, layout.dim)
    weights = {}
    for mask in range(1, layout.dim):  # bit n-1-k of a mask is factor k
        flip = index ^ mask
        if (nonzero & nonzero[:, flip]).any():
            labels = [lab for k, lab in enumerate(layout.labels) if mask >> (n - 1 - k) & 1]
            weights[frozenset(labels)] = (prob * prob[..., flip]).sum(axis=-1)
    return weights
