"""Noisy qubit channels as their Kraus operators.

Each memoryless channel is its Kraus pair on one qubit, one row of
``_KRAUS_PAIRS`` as the README channel table gives it; a two-qubit kind
applies the pair to each qubit.  The correlated amplitude damping channel
acts jointly on the two-qubit system through one operator per state of a
shared two-qubit environment.  ``_kraus_stack`` gives a channel over an array
of p as one tensor K[P, e, s, c] = <s, e|U|c, 0>_E, which is both its Kraus
operators and the isometry of its dilation with the environment starting in
|0>: ``_dilate`` contracts it with the input states and
``_operator_sums`` sums over it, so the dilate-then-trace route and the
operator-sum route realize the same map by construction.  A block is a grid,
one state per x against one tensor over the distinct p; one point is a grid
of one x and one p.

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
import functools
from dataclasses import dataclass

import numpy as np

from .linalg import SubsystemLayout, check_norms, qubits

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


#: A real number: an int, a float, a numpy integer or a numpy float that
#: float64 holds exactly (not a Fraction, which numpy's ufuncs cannot take, nor
#: a longdouble, which float64 would round and json cannot write); an integer:
#: an int or a numpy integer.
_REAL, _INTEGER = (int, float, np.integer, np.float16, np.float32), (int, np.integer)


def _is_a(value, kind: tuple[type, ...]) -> bool:
    """Whether ``value`` is of ``kind`` (_REAL, _INTEGER) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
        if not isinstance(self.kind, ChannelKind):
            raise ValueError(f"kind: {self.kind!r} is not a ChannelKind")
        if not (_is_a(self.p, _REAL) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not (_is_a(self.mu, _REAL) and 0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0, 1], got {self.mu!r}")
        if self.mu != 0.0 and self.kind is not ChannelKind.CADC:
            raise ValueError(f"mu is only meaningful for CADC, got mu={self.mu!r} for {self.kind}")


#: K_1's matrix: the decay |0><1|, the projector |1><1| and the Pauli
#: matrices, real but sigma_y; a kind's Kraus stack takes its matrix's dtype.
_DECAY, _EXCITED, _X, _Z = (np.array(m, dtype=float) for m in (
    [[0, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]))
_Y = np.array([[0, -1j], [1j, 0]])


def _unital(keep, flip):
    """The weights of the pair keep I, flip sigma."""
    return keep, keep, flip


#: Each memoryless kind's Kraus pair on one qubit, as the README channel
#: table writes it: K_0 = diag(a, b) and K_1 = w M, given as the weights
#: p -> (a, b, w) at noise p (a number or an array) and the matrix M.  This
#: is the one definition of the channel; a two-qubit kind applies its pair to
#: each qubit, and CADC's memoryless part is amplitude damping.
_KRAUS_PAIRS = {
    ChannelKind.ADC: (lambda p: (1, np.sqrt(1 - p), np.sqrt(p)), _DECAY),
    ChannelKind.CADC: (lambda p: (1, np.sqrt(1 - p), np.sqrt(p)), _DECAY),
    ChannelKind.PDC: (lambda p: (1, np.sqrt(1 - p), np.sqrt(p)), _EXCITED),
    ChannelKind.BFC: (lambda p: _unital(np.sqrt(1 - p / 2), np.sqrt(p / 2)), _X),
    ChannelKind.PFC: (lambda p: _unital(np.sqrt(1 - p), np.sqrt(p)), _Z),
    ChannelKind.BPFC: (lambda p: _unital(np.sqrt(1 - p), np.sqrt(p)), _Y),
    ChannelKind.DC: (lambda p: _unital(np.sqrt((1 + p) / 2), np.sqrt((1 - p) / 2)), _Y),
}


def _kraus_stack(kind: ChannelKind, ps: np.ndarray, mu: float) -> np.ndarray:
    """The channel (kind, mu) at each noise value of ``ps`` as one contiguous,
    unpruned (P, nK, d, d) stack K[p, e, s, c] = <s, e|U|c, 0>_E (for ps of
    shape (P,); another shape replaces the leading axis): its Kraus
    operators, which are also the isometry of its dilation.

    The kind's pair for one-qubit kinds, its tensor square for memoryless
    two-qubit kinds (CADC at mu = 0 too), and at mu = 1 the correlated
    operators, one per shared environment state: only |11> decays, jointly
    into |11>_E.  CADC at fractional mu stacks the union
    {sqrt(1-mu) K_e^(mu=0)} U {sqrt(mu) K_e^(mu=1)}.  Only the sigma_y
    kinds' stacks (bpfc, dc) are complex; the others are float64."""
    if mu not in (0.0, 1.0):
        return np.concatenate([np.sqrt(w) * _kraus_stack(kind, ps, m)
                               for m, w in ((0.0, 1.0 - mu), (1.0, mu))], axis=-3)
    if mu == 1.0:
        K = np.zeros(ps.shape + (4, 4, 4))
        K[..., 0, [0, 1, 2], [0, 1, 2]] = 1.0
        K[..., 0, 3, 3] = np.sqrt(1.0 - ps)
        K[..., 3, 0, 3] = np.sqrt(ps)
        return K
    weights, matrix = _KRAUS_PAIRS[kind]
    a, b, w = weights(ps)
    K = np.zeros(ps.shape + (2, 2, 2), dtype=matrix.dtype)
    K[..., 0, 0, 0], K[..., 0, 1, 1] = a, b
    K[..., 1, :, :] = np.multiply.outer(w, matrix)
    if kind.n_system_qubits == 1:
        return K
    # the tensor square K[p, e, m, j] K[p, f, n, k] on axes (p, e, f, m, n, j, k)
    return (K[..., :, None, :, None, :, None] * K[..., None, :, None, :, None, :]).reshape(
        ps.shape + (4, 4, 4))


#: Why CADC at 0 < mu < 1 is not dilated (dilate_block and ccr_report raise it).
_NO_DILATION = ("CADC with 0 < mu < 1 is a proper mixture; it has no dilation on "
                "a two-qubit environment (take the operator sum of its _kraus_stack instead)")


def dilate_block(
    kind: ChannelKind, ps: np.ndarray, mu: float, system, sys_layout: SubsystemLayout
) -> tuple[np.ndarray, SubsystemLayout]:
    """Dilate one system state, or one state per x (an array (X, d)),
    through the channel (kind, mu) at every noise value of ``ps`` at once:
    the p grid (P,) of every state, or one bracket (X, P) per state.

    Returns the global amplitudes, one read-only row per (x, p), x-major, and
    the global layout with one environment label ``E_<label>`` per system
    qubit (CADC acts on both jointly), real where the input and the Kraus
    stack are.
    Raises ValueError when an input state does not fit the layout or is not
    normalized, when the system arity does not match the kind, when a
    depolarizing input has complex amplitudes (its identity-plus-sigma_y
    realization describes the intended mixture only on real amplitudes), or
    for CADC with fractional mu.
    ``ps`` and ``mu`` are taken as valid: :class:`ChannelSpec` and the sweep
    configuration check them where they enter.
    """
    n = kind.n_system_qubits
    if len(sys_layout.labels) != n or any(d != 2 for d in sys_layout.dims):
        raise ValueError(
            f"{kind.value} acts on {n} qubit(s); layout has dims {sys_layout.dims}"
        )
    psi = np.asarray(system)
    if psi.shape[-1:] != (sys_layout.dim,):
        raise ValueError(
            f"state of shape {psi.shape} does not end in layout dimension {sys_layout.dim}")
    check_norms(psi)

    if kind is ChannelKind.DC and float(np.abs(psi.imag).max()) > 1e-12:
        raise ValueError("the depolarizing dilation requires real amplitudes")

    if mu not in (0.0, 1.0):
        raise ValueError(_NO_DILATION)
    return _dilate(_kraus_stack(kind, ps, mu), psi, sys_layout)


@functools.lru_cache(maxsize=64)
def _global_layout(sys_layout: SubsystemLayout) -> SubsystemLayout:
    """The layout of a dilated ``sys_layout`` state: the system qubits, then
    one environment qubit ``E_<label>`` per system qubit, built once."""
    return qubits(*sys_layout.labels, *(f"E_{lab}" for lab in sys_layout.labels))


def _dilate(kraus: np.ndarray, psi: np.ndarray, sys_layout: SubsystemLayout):
    """The global amplitudes of states ``psi`` (X, d) through a Kraus tensor
    (P, nK, d, d) shared by every state, or one (X, P, nK, d, d) per state,
    as read-only rows (X * P, d * nK), x-major, and their global layout;
    one state (d,) gives P rows.  Unchecked: see :func:`dilate_block`."""
    out_layout = _global_layout(sys_layout)
    out = np.einsum("...pesc,...c->...pse", kraus, psi).reshape(-1, out_layout.dim)
    out.setflags(write=False)
    return out, out_layout


def _operator_sums(ops: np.ndarray, rhos: np.ndarray | None = None):
    """Completeness defects max_ij |sum_e K^dag K - I|_ij (P,) of the sets of
    an operator stack (P, nK, d, d) and, given states ``rhos`` (R, d, d), their
    images sum_e K rho K^dag (R, P, d, d), else None.  Unchecked: an image
    keeps the trace only as far as its set's defect allows."""
    completeness = np.einsum("pkji,pkjl->pil", ops.conj(), ops)
    defects = np.abs(completeness - np.eye(ops.shape[-1])).max(axis=(-2, -1))
    if rhos is None:
        return defects, None
    # sum_k (K_k rho) K_k^dag, as two stacked products (R, P, nK, d, d)
    images = (ops @ rhos[:, np.newaxis, np.newaxis]) @ ops.conj().swapaxes(-1, -2)
    return defects, images.sum(axis=2)
