"""Noisy qubit channels as explicit system+environment dilations.

Each memoryless channel is defined by the isometry its interaction unitary
induces on one (system qubit, fresh environment qubit) pair, with the
environment starting in |0>.  The correlated amplitude damping channel acts
jointly on the two-qubit system and a shared two-qubit environment.  The
one definition of a channel is ``_isometry``, the tensor W[s, e, c] =
<s, e|U|c, 0>_E over an array of p: ``dilate_block`` builds it once over a
block's p and contracts it with the input state, and ``_kraus_stack`` slices
it along the environment basis, K_e = <e|U|0>_E, so the operator-sum route
and the dilate-then-trace route realize the same map by construction.  The
operator sum has one implementation, ``_operator_sums``, over an operator
stack.  One point is a block of one: a one-element p array.

Channel roster and noise parameter p in [0, 1]:

* ``ADC``  amplitude damping: |1> decays to |0> with probability p, emitting
  one environment excitation.  Two-qubit system, one environment qubit each.
* ``CADC`` correlated amplitude damping: mixes the memoryless map (weight
  1 - mu) with a fully correlated one (weight mu) where only |11> can decay,
  and it decays jointly.  Shared two-qubit environment.
* ``PDC``  phase damping: the environment records which basis state the
  system is in, with no energy exchange.
* ``BFC``  bit flip: each computational state is flipped with probability
  p/2, the flip being recorded in the environment.
* ``PFC``  phase flip: |1> acquires a pi phase with probability p.
  One-qubit system.
* ``BPFC`` bit-phase flip: flip combined with the phase, i.e. a sigma_y
  branch with probability p.  One-qubit system.
* ``DC``   depolarizing: the state survives intact with probability p and is
  otherwise replaced by the maximally mixed one; realized with an identity
  branch of weight (1+p)/2 and a sigma_y branch of weight (1-p)/2, which
  reproduces that convex mixture for real-amplitude pure inputs.  Note the
  orientation: p = 1 is the identity channel, p = 0 full depolarization.
  One-qubit system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import SubsystemLayout, qubits, state_vector

#: A Kraus set applied to a state may deviate from completeness by at most this.
COMPLETENESS_TOL = 1e-10


class ChannelKind(enum.Enum):
    ADC = "adc"
    CADC = "cadc"
    PDC = "pdc"
    BFC = "bfc"
    PFC = "pfc"
    BPFC = "bpfc"
    DC = "dc"

    @property
    def n_system_qubits(self) -> int:
        return 2 if self in _TWO_QUBIT_KINDS else 1


_TWO_QUBIT_KINDS = frozenset(
    {ChannelKind.ADC, ChannelKind.CADC, ChannelKind.PDC, ChannelKind.BFC}
)


@dataclass(frozen=True)
class ChannelSpec:
    """A channel kind with its noise parameter p and memory weight mu.

    ``mu`` is meaningful for CADC only (0 recovers the memoryless map, 1 the
    fully correlated one) and must be 0 for every other kind.
    """

    kind: ChannelKind
    p: float
    mu: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu!r}")
        if self.mu != 0.0 and self.kind is not ChannelKind.CADC:
            raise ValueError(f"mu is only meaningful for CADC, got mu={self.mu!r} for {self.kind}")


def _local_isometry(kind: ChannelKind, p) -> np.ndarray:
    """Isometry V : H_k -> H_k (x) H_Ek with V|j> = U|j,0>, as a (..., 2,2,2)
    tensor over the shape of ``p`` (a noise value or an array of them).

    Index order is V[..., m, e, j]: system output m, environment output e,
    system input j.  The memoryless part of CADC damps each qubit as ADC does.
    """
    V = np.zeros(np.shape(p) + (2, 2, 2), dtype=complex)
    if kind in (ChannelKind.ADC, ChannelKind.CADC):
        V[..., 0, 0, 0] = 1.0
        V[..., 1, 0, 1] = np.sqrt(1.0 - p)  # excited state survives
        V[..., 0, 1, 1] = np.sqrt(p)        # decays, photon emitted
    elif kind is ChannelKind.PDC:
        V[..., 0, 0, 0] = 1.0
        V[..., 1, 0, 1] = np.sqrt(1.0 - p)
        V[..., 1, 1, 1] = np.sqrt(p)        # environment tagged, no transition
    elif kind is ChannelKind.BFC:
        keep, flip = np.sqrt(1.0 - p / 2.0), np.sqrt(p / 2.0)
        V[..., 0, 0, 0] = keep
        V[..., 1, 1, 0] = flip
        V[..., 1, 0, 1] = keep
        V[..., 0, 1, 1] = flip
    elif kind is ChannelKind.PFC:
        keep, flip = np.sqrt(1.0 - p), np.sqrt(p)
        V[..., 0, 0, 0] = keep
        V[..., 0, 1, 0] = flip
        V[..., 1, 0, 1] = keep
        V[..., 1, 1, 1] = -flip             # pi phase on |1>
    elif kind is ChannelKind.BPFC:
        keep, flip = np.sqrt(1.0 - p), np.sqrt(p)
        V[..., 0, 0, 0] = keep
        V[..., 1, 1, 0] = 1j * flip         # sigma_y branch
        V[..., 1, 0, 1] = keep
        V[..., 0, 1, 1] = -1j * flip
    elif kind is ChannelKind.DC:
        keep, mix = np.sqrt((1.0 + p) / 2.0), np.sqrt((1.0 - p) / 2.0)
        V[..., 0, 0, 0] = keep
        V[..., 1, 1, 0] = 1j * mix          # sigma_y branch
        V[..., 1, 0, 1] = keep
        V[..., 0, 1, 1] = -1j * mix
    else:
        raise ValueError(f"{kind} has no single-qubit interaction")
    return V


def _correlated_isometry(p) -> np.ndarray:
    """Fully correlated amplitude damping isometry as a (..., 4,4,4) tensor
    W[..., s, e, c] over the shape of ``p``.

    Only |11> decays, and it decays jointly into the shared environment
    excitation |11>_E; the other basis states pass through untouched.
    """
    W = np.zeros(np.shape(p) + (4, 4, 4), dtype=complex)
    for c in range(3):
        W[..., c, 0, c] = 1.0
    W[..., 3, 0, 3] = np.sqrt(1.0 - p)
    W[..., 0, 3, 3] = np.sqrt(p)
    return W


def _isometry(kind: ChannelKind, p, mu: float) -> np.ndarray:
    """The channel at each noise value of ``p`` as one tensor stack
    W[..., s, e, c] = <s, e|U|c, 0>_E.

    The local V for one-qubit kinds, V (x) V as (..., 4, 4, 4) for memoryless
    two-qubit kinds (CADC at mu = 0 too), the correlated isometry at mu = 1.
    CADC at fractional mu (the only kind with mu != 0) raises ValueError.
    """
    if mu not in (0.0, 1.0):
        raise ValueError(
            "CADC with 0 < mu < 1 is a proper mixture; it has no dilation on "
            "a two-qubit environment (take the operator sum of its _kraus_stack instead)"
        )
    if mu == 1.0:
        return _correlated_isometry(p)
    V = _local_isometry(kind, p)
    if kind.n_system_qubits == 1:
        return V
    return np.einsum("...aej,...bfk->...abefjk", V, V).reshape(V.shape[:-3] + (4, 4, 4))


def dilate_block(
    kind: ChannelKind, ps: np.ndarray, mu: float, system, sys_layout: SubsystemLayout
) -> tuple[np.ndarray, SubsystemLayout]:
    """Dilate one system state through the channel (kind, mu) at every noise
    value of ``ps`` at once.

    Returns the global amplitudes, one read-only row per p, and the global
    layout with one environment label ``E_<label>`` per system qubit (CADC
    acts on both jointly).  Raises ValueError when the system arity does not
    match the kind, when a depolarizing input has complex amplitudes (its
    identity-plus-sigma_y realization describes the intended mixture only on
    real amplitudes), or for CADC with fractional mu (see :func:`_isometry`).
    ``ps`` and ``mu`` are taken as valid: :class:`ChannelSpec` and the sweep
    configuration check them where they enter.
    """
    n = kind.n_system_qubits
    if len(sys_layout.labels) != n or any(d != 2 for d in sys_layout.dims):
        raise ValueError(
            f"{kind.value} acts on {n} qubit(s); layout has dims {sys_layout.dims}"
        )
    psi = state_vector(system)
    if psi.size != sys_layout.dim:
        raise ValueError(f"state dimension {psi.size} != layout dimension {sys_layout.dim}")

    env_labels = tuple(f"E_{lab}" for lab in sys_layout.labels)
    out_layout = qubits(*sys_layout.labels, *env_labels)

    if kind is ChannelKind.DC and float(np.abs(psi.imag).max()) > 1e-12:
        raise ValueError("the depolarizing dilation requires real amplitudes")

    W = _isometry(kind, ps, mu)
    out = np.einsum("psec,c->pse", W, psi).reshape(len(ps), out_layout.dim)
    out.setflags(write=False)
    return out, out_layout


def _kraus_stack(kind: ChannelKind, ps: np.ndarray, mu: float) -> np.ndarray:
    """Kraus operators K_e = W[:, e, :] of the channel at each noise value of
    ``ps`` as one contiguous, unpruned (P, nK, d, d) stack: :func:`_isometry`
    with its environment axis moved to position 1.  CADC at fractional mu
    stacks the union {sqrt(1-mu) K_e^(mu=0)} U {sqrt(mu) K_e^(mu=1)}."""
    if mu in (0.0, 1.0):
        return np.ascontiguousarray(np.moveaxis(_isometry(kind, ps, mu), 2, 1))
    return np.concatenate([np.sqrt(w) * _kraus_stack(kind, ps, m)
                           for m, w in ((0.0, 1.0 - mu), (1.0, mu))], axis=1)


def _operator_sums(ops: np.ndarray, rhos: np.ndarray | None = None):
    """Completeness defects max_ij |sum_e K^dag K - I|_ij (P,) of the sets of
    an operator stack (P, nK, d, d) and, given states ``rhos`` (R, d, d), their
    images sum_e K rho K^dag (R, P, d, d), else None.  Images of a set whose
    defect exceeds ``COMPLETENESS_TOL`` raise ValueError (trace not kept)."""
    completeness = np.einsum("pkji,pkjl->pil", ops.conj(), ops)
    defects = np.abs(completeness - np.eye(ops.shape[-1])).max(axis=(-2, -1))
    if rhos is None:
        return defects, None
    if defects.max() > COMPLETENESS_TOL:
        raise ValueError(f"incomplete Kraus set: defect {float(defects.max())!r}")
    return defects, np.einsum("pkij,rjl,pkml->rpim", ops, rhos, ops.conj())
