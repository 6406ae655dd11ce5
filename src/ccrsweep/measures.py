"""Coherence, predictability, entropy, correlation and entanglement measures.

All coherence-type quantities are evaluated in the fixed computational
product basis of the operator's layout.  Entropies use log base 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DensityOperator,
    SubsystemLayout,
    hermitian_eigenvalues,
    outer,
    partial_trace,
    partial_transpose,
    state_vector,
)

X_STATE_TOL = 1e-12


def hs_coherence(rho: DensityOperator) -> float:
    """Hilbert-Schmidt (l2) coherence: sum of squared off-diagonal moduli."""
    abs2 = np.abs(rho.mat) ** 2
    np.fill_diagonal(abs2, 0.0)
    return float(abs2.sum())


def hs_predictability(rho: DensityOperator) -> float:
    """Population imbalance sum_j rho_jj^2 - 1/d."""
    diag = rho.mat.diagonal().real
    return float((diag**2).sum() - 1.0 / rho.dim)


def linear_entropy(rho: DensityOperator) -> float:
    """1 - Tr rho^2: mixedness, and for a subsystem of a pure global state
    its correlation with everything else."""
    return float(1.0 - np.einsum("ij,ji->", rho.mat, rho.mat).real)


def correlated_coherence_hs(rho_global: DensityOperator, blocks: Sequence[str]) -> float:
    """Joint coherence of the named subsystems minus their local coherences.

    ``blocks`` is a sequence of single subsystem labels; the joint reduced
    state over all of them is compared against each one-label marginal,
    traced from the joint, so passing the joint reduced state is free.  Two
    blocks give the usual bipartite correlated coherence; more blocks
    subtract every single-label local coherence from the joint one.
    """
    if len(blocks) == 0:
        raise ValueError("correlated coherence needs at least one block")
    joint = partial_trace(rho_global, blocks)
    total = hs_coherence(joint)
    for label in blocks:
        total -= hs_coherence(partial_trace(joint, {label}))
    return total


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum_i lam_i log2 lam_i with round-off negatives clamped to zero."""
    lam = hermitian_eigenvalues(rho.mat)
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def re_correlated_coherence(rho_global: DensityOperator, blocks: Sequence[str]) -> float:
    """Relative-entropy correlated coherence of two subsystems.

    Basis independent and equal to the quantum mutual information
    S(X) + S(Y) - S(XY); only defined here for exactly two blocks.  The
    marginals are traced from the joint, so passing the joint state is free.
    """
    if len(blocks) != 2:
        raise ValueError(f"expected exactly two blocks, got {len(blocks)}")
    joint = partial_trace(rho_global, blocks)
    s_joint = von_neumann_entropy(joint)
    s_locals = sum(
        von_neumann_entropy(partial_trace(joint, {label})) for label in blocks
    )
    return float(s_locals - s_joint)


def concurrence_pure(psi, layout: SubsystemLayout, cut: Iterable[str]) -> float:
    """Concurrence of a pure state across a cut: sqrt(2 (1 - Tr rho_cut^2))."""
    rho_cut = partial_trace(outer(psi, layout), cut)
    return float(np.sqrt(max(0.0, 2.0 * linear_entropy(rho_cut))))


def _require_x_state(mat: np.ndarray) -> None:
    off_mask = np.ones((4, 4), dtype=bool)
    off_mask[np.arange(4), np.arange(4)] = False
    off_mask[np.arange(4), np.arange(4)[::-1]] = False
    worst = float(np.abs(mat[off_mask]).max())
    if worst > X_STATE_TOL:
        raise ValueError(
            f"not an X state: entry of modulus {worst!r} outside diagonal/anti-diagonal"
        )


def concurrence_x_state(rho: DensityOperator) -> float:
    """Closed-form concurrence 2 max(0, L1, L2) for a two-qubit X state.

    L1 = |rho_14| - sqrt(rho_22 rho_33), L2 = |rho_23| - sqrt(rho_11 rho_44).
    Raises ValueError when the matrix is not X-shaped (the formula would be
    silently wrong).
    """
    if rho.dim != 4:
        raise ValueError(f"X-state concurrence needs a two-qubit state, dim {rho.dim}")
    m = rho.mat
    _require_x_state(m)
    diag = np.clip(m.diagonal().real, 0.0, None)
    lam1 = abs(m[0, 3]) - np.sqrt(diag[1] * diag[2])
    lam2 = abs(m[1, 2]) - np.sqrt(diag[0] * diag[3])
    return float(2.0 * max(0.0, lam1, lam2))


def is_ppt(rho: DensityOperator, subsystem: str, tol: float = 1e-10) -> bool:
    """Positivity of the partial transpose across ``subsystem`` vs the rest."""
    lam = hermitian_eigenvalues(partial_transpose(rho, subsystem))
    return bool(lam[0] >= -tol)


@dataclass(frozen=True)
class SectorDecomposition:
    """Coherence of a pure state split by which subsystems each term spans.

    ``weights`` maps a set of labels to the summed weight 2|c_a|^2|c_b|^2 of
    all basis pairs (a, b) whose multi-indices differ exactly on those
    labels; ``total`` is the Hilbert-Schmidt coherence of the projector.
    """

    weights: dict[frozenset[str], float]
    total: float

    def weight(self, labels: Iterable[str]) -> float:
        return self.weights.get(frozenset(labels), 0.0)


def sector_decomposition(psi, layout: SubsystemLayout) -> SectorDecomposition:
    """Attribute each coherence term of |psi><psi| to the factors it spans."""
    psi = state_vector(psi)
    if psi.size != layout.dim:
        raise ValueError(f"state dimension {psi.size} != layout dimension {layout.dim}")
    digits = np.array(np.unravel_index(np.arange(psi.size), layout.dims)).T
    support = [i for i in range(psi.size) if psi[i] != 0.0]
    prob = np.abs(psi) ** 2

    weights: dict[frozenset[str], float] = {}
    total = 0.0
    for a_pos, a in enumerate(support):
        for b in support[a_pos + 1:]:
            w = 2.0 * prob[a] * prob[b]
            differ = frozenset(
                layout.labels[k] for k in range(len(layout.dims)) if digits[a, k] != digits[b, k]
            )
            weights[differ] = weights.get(differ, 0.0) + w
            total += w
    return SectorDecomposition(weights, total)
