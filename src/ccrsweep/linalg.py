"""Dense complex linear algebra over labeled tensor-product spaces.

States and operators are plain numpy arrays; a :class:`SubsystemLayout` names
the tensor factors so that partial traces can be requested by subsystem label
instead of raw index arithmetic.  The basis convention throughout is the
computational product basis ordered with the leftmost label as the most
significant digit, i.e. for a layout (A, B) of two qubits the basis is |00>,
|01>, |10>, |11> with A's bit first.

Everything here is immutable after construction and all operations are pure
functions, so values can be shared freely between concurrent workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Structural checks (Hermiticity, trace, normalization) hold to near machine
# precision; spectral checks lose a couple of digits to the eigensolver.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered subsystem labels with their local dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.labels) != len(self.dims):
            raise ValueError(
                f"{len(self.labels)} labels but {len(self.dims)} dimensions"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate subsystem labels in {self.labels}")
        if any(d < 2 for d in self.dims):
            raise ValueError(f"local dimensions must be >= 2, got {self.dims}")

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension (product of local dimensions)."""
        return math.prod(self.dims)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown subsystem label {label!r}; have {self.labels}") from None

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Factor positions of ``labels``, sorted into layout order."""
        return sorted(self.position(lab) for lab in labels)


@functools.lru_cache(maxsize=64)
def qubits(*labels: str) -> SubsystemLayout:
    """Layout of one qubit per label, built once and shared (it is immutable)."""
    return SubsystemLayout(tuple(labels), (2,) * len(labels))


def state_vector(amplitudes) -> np.ndarray:
    """Validate a normalized complex amplitude vector and freeze it.

    Raises ValueError when | ||psi||^2 - 1 | exceeds ``NORM_TOL``.
    """
    psi = np.array(amplitudes, dtype=complex).reshape(-1)
    check_norms(psi)
    psi.setflags(write=False)
    return psi


def check_norms(psi: np.ndarray) -> None:
    """Raise ValueError unless a vector, or each of a stack (..., n), is
    finite with norm 1 to ``NORM_TOL``."""
    # einsum raises no overflow warning: an overflowing norm is inf, reported below
    norm2 = np.einsum("...i,...i->...", psi.conj(), psi).real
    deviation = np.abs(norm2 - 1.0)
    if not deviation.max() <= NORM_TOL:  # a NaN deviation fails too
        if not np.isfinite(psi).all():
            raise ValueError("state vector has non-finite amplitudes")
        worst = float(norm2.flat[deviation.argmax()])
        raise ValueError(f"state vector is not normalized: ||psi||^2 = {worst!r}")


def _check_hermitian(mat: np.ndarray) -> None:
    """Raise ValueError unless a matrix, or each of a stack (..., d, d), is
    finite and Hermitian to ``HERMITIAN_TOL``."""
    with np.errstate(all="ignore"):  # inf - inf is a NaN defect, reported below
        defect = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
    if not defect <= HERMITIAN_TOL:  # a NaN defect fails too
        if not np.isfinite(mat).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not Hermitian: defect {defect!r} > {HERMITIAN_TOL!r}")


def check_density(mat: np.ndarray) -> None:
    """Raise ValueError, naming the worst defect, unless a matrix, or each of a
    stack (..., d, d), is finite and Hermitian to ``HERMITIAN_TOL`` with trace
    1 to ``TRACE_TOL`` and no eigenvalue below ``EIGENVALUE_FLOOR``."""
    _check_hermitian(mat)
    tr = np.einsum("...ii->...", mat)  # as in check_norms, an overflow is an inf trace
    deviation = np.abs(tr - 1.0)
    if deviation.max() > TRACE_TOL:
        raise ValueError(f"trace must be 1, got {complex(tr.flat[deviation.argmax()])!r}")
    lo = float(np.linalg.eigvalsh(mat)[..., 0].min())
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"minimum eigenvalue {lo!r} below {EIGENVALUE_FLOOR}")


@dataclass(frozen=True)
class DensityOperator:
    """A labeled density matrix: Hermitian, unit trace, positive semidefinite.

    Construction enforces Hermiticity and trace to ``1e-12`` and rejects
    eigenvalues below ``EIGENVALUE_FLOOR``; round-off negatives above the
    floor are tolerated here and clamped where entropies are evaluated.
    """

    mat: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != self.layout.dim:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match layout "
                f"{self.layout.labels} of dimension {self.layout.dim}"
            )
        check_density(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        """The matrix: numpy and the measures read a density operator as an array."""
        return np.array(self.mat, dtype=dtype, copy=copy)


def outer(psi, layout: SubsystemLayout) -> DensityOperator:
    """Rank-1 projector |psi><psi| as a density operator on ``layout``."""
    psi = state_vector(psi)
    if psi.size != layout.dim:
        raise ValueError(
            f"state of dimension {psi.size} does not match layout of dimension {layout.dim}"
        )
    return DensityOperator(np.outer(psi, psi.conj()), layout)


def _partial_trace(mats: np.ndarray, dims: Sequence[int], keep: list[int]) -> np.ndarray:
    """Reduced states on the factor positions ``keep`` (ascending) of a stack
    (..., D, D) over factors of dimensions ``dims``, by one einsum."""
    n = len(dims)
    t = mats.reshape(mats.shape[:-2] + tuple(dims) * 2)
    cols = [n + j if j in keep else j for j in range(n)]
    out = np.einsum(t, [..., *range(n), *cols], [..., *keep, *(n + k for k in keep)])
    d = math.prod(dims[k] for k in keep)
    return out.reshape(mats.shape[:-2] + (d, d))


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every subsystem not named in ``keep``.

    The result keeps the original factor order.  Keeping every label returns
    the operator unchanged.
    """
    keep = set(keep)
    if not keep:
        raise ValueError("must keep at least one subsystem")
    layout = rho.layout
    pos = layout.positions(keep)
    if len(pos) == len(layout.dims):
        return rho
    return DensityOperator(
        _partial_trace(rho.mat, layout.dims, pos),
        SubsystemLayout(tuple(layout.labels[i] for i in pos), tuple(layout.dims[i] for i in pos)),
    )


def _partial_transpose(mats: np.ndarray, dims: Sequence[int], i: int) -> np.ndarray:
    """Transpose the indices of factor position ``i`` of a stack (..., D, D)."""
    n = len(dims)
    t = mats.reshape(mats.shape[:-2] + tuple(dims) * 2)
    return np.swapaxes(t, i - 2 * n, i - n).reshape(mats.shape)


def _hermitian(m) -> np.ndarray:
    """``m`` as a complex array, after checking that it is a square matrix or
    a stack (..., d, d) of them, finite and Hermitian to ``HERMITIAN_TOL``;
    a DensityOperator's matrix was checked when it was built."""
    if isinstance(m, DensityOperator):
        return m.mat
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _check_hermitian(m)
    return m

