"""The cached-table kernels against the loops they replaced, byte for byte.

``reports._reduced`` gathers each kept pair through one cached index table,
and ``measures.sector_decomposition`` weighs every mask through one cached
flip table.  The reference functions below are the former per-keep
transpose loop and per-mask loop; both kernels must give the same bytes and
the same dict key order.
"""

import math

import numpy as np
import pytest

from ccrsweep.channels import ChannelKind, dilate_block
from ccrsweep.linalg import qubits
from ccrsweep.measures import _mask_table, sector_decomposition
from ccrsweep.reports import PAIRS, _gather, _reduced, initial_state

BLOCKS = [(kind, mu) for kind in ChannelKind
          for mu in ((0.0, 1.0) if kind is ChannelKind.CADC else (0.0,))]
#: x = 0 and x = 1 give zero amplitudes, and so do p = 0 and p = 1
XS = (0.0, 0.37, 1 / math.sqrt(2), 1.0)
PS = {"P=1": np.array([0.37]), "P=1 p=0": np.array([0.0]), "P=1 p=1": np.array([1.0]),
      "P=101": np.linspace(0.0, 1.0, 101)}


def reduced_by_transposes(amplitudes, layout, *keeps):
    """Reduced states (K, P, d, d) by a transpose and reshape per keep."""
    t = amplitudes.reshape((-1,) + layout.dims)
    ms = []
    for keep in keeps:
        axes = [1 + layout.position(label) for label in keep]
        m = t.transpose([0, *axes, *(a for a in range(1, t.ndim) if a not in axes)])
        ms.append(m.reshape(len(t), math.prod(t.shape[a] for a in axes), -1))
    m = np.stack(ms)
    return m @ m.conj().swapaxes(-1, -2)


def sectors_by_masks(psi, layout):
    """Sector weights of a pure qubit state or stack, one mask at a time."""
    psi = np.array(psi, dtype=complex)
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


def assert_same_bytes(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def block_ids(block):
    kind, mu = block
    return f"{kind.value}-mu{mu:g}"


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_reduced_matches_the_transpose_loop_bytewise(block, ps):
    kind, mu = block
    for x in XS:
        psi, sys_layout = initial_state(kind, x)
        amplitudes, layout = dilate_block(kind, ps, mu, psi, sys_layout)
        pairs = tuple(pair for pair in PAIRS.values() if set(pair) <= set(layout.labels))
        cases = [(amplitudes, layout, pairs),
                 (amplitudes, layout, (sys_layout.labels,)),  # ("A",) or ("A", "B")
                 (psi[np.newaxis], sys_layout, (("A",),))]
        if kind.n_system_qubits == 2:
            cases.append((amplitudes, layout, (PAIRS["AB"],)))
        for amps, lay, keeps in cases:
            assert_same_bytes(_reduced(amps, lay, *keeps), reduced_by_transposes(amps, lay, *keeps))


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_sector_decomposition_matches_the_mask_loop_bytewise(block, ps):
    kind, mu = block
    for x in XS:
        amplitudes, layout = dilate_block(kind, ps, mu, *initial_state(kind, x))
        for psi in (amplitudes, amplitudes[0]):  # a stack and one state
            got, want = sector_decomposition(psi, layout), sectors_by_masks(psi, layout)
            assert list(got) == list(want)
            for labels in want:
                assert_same_bytes(got[labels], want[labels])


def test_cached_tables_are_shared_and_read_only():
    layout = qubits("A", "B", "E_A", "E_B")
    table = _gather(layout, (PAIRS["AB"], PAIRS["EAEB"]))
    assert table is _gather(layout, (PAIRS["AB"], PAIRS["EAEB"]))
    assert (table.shape, table.dtype) == ((2, 4, 4), np.intp)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1
    flips, label_sets = _mask_table(layout.labels)
    assert flips.shape == (15, 16) and len(label_sets) == 15
    with pytest.raises(ValueError, match="read-only"):
        flips[0, 0] = 1
