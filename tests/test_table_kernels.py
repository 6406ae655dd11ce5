"""The table kernels against the routes they replaced.

``reports._reduced`` gathers each kept pair through one cached index table,
and ``measures._sectors`` weighs every mask through one cached flip table,
one row per mask; ``sector_decomposition`` lists its present rows.  The
reference functions below are the former per-keep transpose loop and
per-mask loop; both kernels must give the same bytes and the same dict key
order, and the engine's sector rows must be those bytes, or +0.0 where a
sector is absent.  ``reports._measure_columns`` reads every 2x2 block it
measures, each pair's marginals and each X or partial-transpose block, from
one entry table of the pair stack through the layout's cached plan, each
pair's HS coherence too, with the bits of the matrix kernel _hs_coherence; the
former traced route is kept below as the reference, which every column must
match to 1e-15 and every ``ppt_*`` flag exactly.  Every
channel's amplitudes are float64, and measuring them gives the bytes that
measuring them as complex gives; the sigma_y kinds' amplitudes through the
complex sigma_y stack measure to the bytes of their real XZ rows.  The sudden-death bisection brackets
every x in one stacked block per round; the former loop over x, one block
per x and round, is the reference for its bytes.
"""

import math

import numpy as np
import pytest

from ccrsweep.channels import ChannelKind, _dilate, dilate_block
from ccrsweep.cli import ROWS
from ccrsweep.linalg import qubits
from ccrsweep.measures import (
    PPT_TOL,
    _entropy_terms,
    _hs_coherence,
    _hs_predictability,
    _linear_entropy,
    _mask_table,
    _off_x,
    _ppt_min,
    _sectors,
    _spectrum,
    _x_blocks,
    _x_concurrence,
    _x_entries,
    concurrence_x_state,
    factor_marginals,
    hs_coherence,
    hs_predictability,
    linear_entropy,
    sector_decomposition,
)
from ccrsweep.reports import (
    PAIRS,
    _ENTRIES,
    _HS_FLAT,
    _SECTOR_COLUMNS,
    _SELECT,
    _block_columns,
    _gather,
    _measure_columns,
    _plan,
    _reduced,
    _sector_columns,
    _sudden_death_bisection,
    initial_state,
)

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


def mask_labels(mask, layout):
    """The labels a mask flips: bit n-1-k is factor k."""
    n = len(layout.labels)
    return frozenset(lab for k, lab in enumerate(layout.labels) if mask >> (n - 1 - k) & 1)


#: The factors of each phase damping sector column, as its name spells them.
SECTOR_FACTORS = {"sector_" + "".join(labels).replace("_", ""): frozenset(labels) for labels in (
    ("A", "B"), ("A", "B", "E_A"), ("A", "B", "E_B"), ("A", "B", "E_A", "E_B"),
    ("E_A", "E_B"), ("E_A",), ("E_B",))}


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", [b for b in BLOCKS if b[0].n_system_qubits == 2], ids=block_ids)
def test_engine_sector_rows_are_the_decomposition_bytewise(block, ps):
    # the engine reads one weight row per mask; the public dict lists the
    # present masks, and a former reader filled the absent ones with zeros
    kind, mu = block
    absent = 0
    for x in XS:
        m, amplitudes, layout, _ = _block_columns(kind, mu, x, ps)
        weights = _sectors(amplitudes, len(layout.labels))
        assert (weights.shape, weights.dtype) == ((15, len(ps)), np.float64)
        listed = sector_decomposition(amplitudes, layout)
        for mask in range(1, 16):
            labels = mask_labels(mask, layout)
            if labels in listed:
                assert weights[mask - 1].tobytes() == listed[labels].tobytes(), (x, mask)
            else:  # exactly +0.0, as the former zero fill
                assert weights[mask - 1].tobytes() == np.zeros(len(ps)).tobytes(), (x, mask)
                absent += 1
        # verify's sector total, the sector_total_consistency row, sums the
        # rows in mask order, as the former sum over the listed sectors
        former_total = sum(listed.values(), np.zeros(len(ps)))
        residual = ROWS["sector_total_consistency"].residual({**m, "sectors": weights})
        assert residual.tobytes() == abs(former_total - m["C_global"]).tobytes(), x
        columns = _sector_columns(weights)
        for name, factors in SECTOR_FACTORS.items():
            want = listed.get(factors, np.zeros(len(ps)))
            assert columns[name].tobytes() == want.tobytes(), (x, name)
        assert list(_sector_columns(weights)) == list(_SECTOR_COLUMNS) == list(SECTOR_FACTORS)
    # x = 1 is a basis state, which has no sector at all
    assert absent >= 15


def test_cached_tables_are_shared_and_read_only():
    layout = qubits("A", "B", "E_A", "E_B")
    table = _gather(layout, (PAIRS["AB"], PAIRS["EAEB"]))
    assert table is _gather(layout, (PAIRS["AB"], PAIRS["EAEB"]))
    assert (table.shape, table.dtype) == ((2, 4, 4), np.intp)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1
    flips = _mask_table(4)
    assert flips is _mask_table(4)
    assert (flips.shape, flips.dtype) == ((15, 16), np.intp)
    with pytest.raises(ValueError, match="read-only"):
        flips[0, 0] = 1


@pytest.mark.parametrize("labels", [("A", "B", "E_A", "E_B"), ("A", "E_A")],
                         ids=["two-qubit", "one-qubit"])
def test_measure_plan_is_shared_and_read_only(labels):
    layout = qubits(*labels)
    plan = _plan(layout)
    assert plan is _plan(layout)
    pairs, aea, cc_columns, ppt_columns, eigen_tables = plan
    names = [name for name, pair in PAIRS.items() if set(pair) <= set(labels)]
    assert pairs == tuple(PAIRS[name] for name in names)
    assert pairs[aea] == PAIRS["AEA"]
    assert cc_columns == tuple(f"Cc_{name}" for name in names)
    assert ppt_columns == tuple(f"ppt_{name}" for name in names if name != "AB")
    assert (eigen_tables is None) is ("AB" not in names)
    for table in (_SELECT, *(eigen_tables or ())):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    # the eigen-tables index the pairs in the two-qubit stack order
    assert eigen_tables is None or names == list(PAIRS)


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_entry_table_holds_the_listed_sums_bytewise(block, ps):
    # each entry, read by one product with the 0/1 matrix, has the bits of
    # the modulus of its terms added directly; an entry of no terms is +0.0
    kind, mu = block
    for x in XS:
        _, amplitudes, layout, _ = _block_columns(kind, mu, x, ps)
        stack = _reduced(amplitudes, layout, *_plan(layout)[0])
        flat = stack.reshape(stack.shape[:2] + (16,))
        got = np.abs(flat @ _SELECT)
        assert got.shape == stack.shape[:2] + (len(_ENTRIES),)
        for column, terms in enumerate(_ENTRIES):
            if not terms:
                assert got[..., column].tobytes() == np.zeros(stack.shape[:2]).tobytes(), x
                continue
            total = flat[..., terms[0]]
            for term in terms[1:]:
                total = total + flat[..., term]
            assert got[..., column].tobytes() == np.abs(total).tobytes(), (x, terms)


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_entry_table_off_x_entries_are_the_off_x_test(block, ps):
    # entries 12-15 are the upper off-X entries, one of each Hermitian pair of
    # off-X positions, so a pair has a nonzero one exactly where _off_x does;
    # the engine's off-X test reads entries[1:, :, 12:16]
    assert _ENTRIES[12:16] == ((1,), (11,), (2,), (7,))
    kind, mu = block
    for x in XS:
        _, amplitudes, layout, _ = _block_columns(kind, mu, x, ps)
        stack = _reduced(amplitudes, layout, *_plan(layout)[0])
        entries = np.abs(stack.reshape(stack.shape[:2] + (16,)) @ _SELECT)
        assert (entries[..., 12:16].any(axis=-1) == _off_x(stack).any(axis=-1)).all()


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_entry_table_hs_coherence_is_the_matrix_kernel_bytewise(block, ps):
    # each pair's HS coherence is its squared entries taken through _HS_FLAT,
    # the moduli at the 16 flat positions with the zero entry on the
    # diagonal, and summed: the bits of _hs_coherence on the pair stack,
    # which the engine's Cc_* columns and C_env subtract as they did from it
    assert [_ENTRIES[k] for k in _HS_FLAT[[1, 2, 3, 6, 7, 11]]] == [(1,), (2,), (3,), (6,), (7,), (11,)]
    assert (_HS_FLAT == _HS_FLAT.reshape(4, 4).T.ravel()).all()
    assert (_HS_FLAT[::5] == 16).all() and _ENTRIES[16] == ()
    kind, mu = block
    for x in XS:
        got, amplitudes, layout, _ = _block_columns(kind, mu, x, ps)
        pairs = _plan(layout)[0]
        stack = _reduced(amplitudes, layout, *pairs)
        sq = np.square(np.abs(stack.reshape(stack.shape[:2] + (16,)) @ _SELECT))
        want = _hs_coherence(stack)
        assert_same_bytes(np.take(sq, _HS_FLAT, axis=-1).sum(axis=-1), want)
        local = [2.0 * sq[..., 8], 2.0 * sq[..., 11]]  # each factor's 2|b|^2
        names = [name for name, pair in PAIRS.items() if pair in pairs]
        for k, name in enumerate(names):
            assert_same_bytes(got[f"Cc_{name}"], want[k] - local[0][k] - local[1][k])
        if "EAEB" in names:
            assert_same_bytes(got["C_env"], want[names.index("EAEB")])


def entropy(lam):
    """Von Neumann entropy of spectra (..., n): minus the sum of their terms."""
    return -_entropy_terms(lam).sum(axis=-1)


def measure_columns_by_traces(amplitudes, layout, initial):
    """The measure columns by the former route: each pair's marginals traced
    (factor_marginals) and measured by hs_coherence and the spectrum kernel,
    A's marginal and the initial marginals (X, 2, 2) by the public matrix
    measures, S(AB) from the sorted X block eigenvalues (the spectrum
    kernel's former X branch) and the concurrence by concurrence_x_state."""
    names = [name for name, pair in PAIRS.items() if set(pair) <= set(layout.labels)]
    stack = _reduced(amplitudes, layout, *(PAIRS[name] for name in names))
    pairs = dict(zip(names, stack))
    firsts, seconds = factor_marginals(stack, (2, 2))
    rho_a, per_x = firsts[names.index("AEA")], len(amplitudes) // len(initial)
    m = {}
    for columns, states, repeat in ((("P_hs_A", "C_hs_A", "S_l_A"), rho_a, 1),
                                    (("P_hs_A_initial", "C_hs_A_initial", "S_l_initial"),
                                     initial, per_x)):
        for name, measure in zip(columns, (hs_predictability, hs_coherence, linear_entropy)):
            m[name] = measure(states).repeat(repeat)
    m["C_global"] = 1.0 - (np.abs(amplitudes) ** 4).sum(axis=-1)
    hs_joint, hs_first, hs_second = hs_coherence(stack), hs_coherence(firsts), hs_coherence(seconds)
    m.update(zip([f"Cc_{name}" for name in names], hs_joint - hs_first - hs_second))
    cross = int("AB" in pairs)
    if cross:
        cross_min = _ppt_min(stack[cross:])
    else:
        c = amplitudes
        cross_min = -np.abs(c[:, 0] * c[:, 3] - c[:, 1] * c[:, 2])[np.newaxis]
    m.update(zip([f"ppt_{name}" for name in names[cross:]], (cross_min >= -PPT_TOL).astype(float)))
    if cross:
        local = hs_first + hs_second
        s_a, s_b = entropy(_spectrum(np.stack([firsts[0], seconds[0]])))
        m.update(
            Cc_ABE=m["C_global"] - (local[0] + local[names.index("EAEB")]),
            C_env=hs_joint[names.index("EAEB")],
            concurrence_AB=concurrence_x_state(pairs["AB"]),
            mutual_info_AB=s_a + s_b - entropy(np.sort(np.stack(
                _x_blocks(*_x_entries(pairs["AB"])), axis=-1), axis=-1)),
        )
    return m


#: p at and next to the ends of [0, 1], alone and inside a 101-point block
EDGE_PS = (0.0, 5e-324, 1e-300, 0.37, 1.0 - 2.0**-53, 1.0)
BLOCK_PS = {**{f"P=1 p={p!r}": np.array([p]) for p in EDGE_PS},
            "P=101": np.union1d(np.linspace(0.0, 1.0, 97), EDGE_PS)}


@pytest.mark.parametrize("ps", BLOCK_PS.values(), ids=BLOCK_PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_pair_entry_columns_match_the_traced_route(block, ps):
    kind, mu = block
    assert len(ps) in (1, 101)
    for x in (0.0, 1e-8, 0.37, 1 / math.sqrt(2), 1.0):
        got, amplitudes, layout, _ = _block_columns(kind, mu, x, ps)
        psi, sys_layout = initial_state(kind, x)
        want = measure_columns_by_traces(
            amplitudes, layout, _reduced(psi[np.newaxis], sys_layout, ("A",))[0])
        assert list(got) == list(want)
        for name in want:
            if name.startswith("ppt_"):
                assert np.array_equal(got[name], want[name]), (name, x)
            else:
                assert np.abs(got[name] - want[name]).max() <= 1e-15, (name, x)


@pytest.mark.parametrize("ps", BLOCK_PS.values(), ids=BLOCK_PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_local_columns_are_the_matrix_kernels_bytewise(block, ps):
    # the local and *_initial columns, read from (a, d, |b|) entries, have the
    # bits of the matrix kernels on A's marginal (the A-E_A pair's first
    # factor, two slice sums of its entries) and on the initial marginals,
    # each repeated over its x's P rows
    kind, mu = block
    xs = np.array([0.0, 1e-8, 0.37, 1 / math.sqrt(2), 1.0])
    got, amplitudes, layout, _ = _block_columns(kind, mu, xs, ps)
    t = _reduced(amplitudes, layout, PAIRS["AEA"])[0].reshape(-1, 2, 2, 2, 2)
    a = initial_state(kind, xs)[0].reshape(len(xs), 2, -1)
    for columns, states, repeat in (
            (("P_hs_A", "C_hs_A", "S_l_A"), t[..., :, 0, :, 0] + t[..., :, 1, :, 1], 1),
            (("P_hs_A_initial", "C_hs_A_initial", "S_l_initial"), a @ a.swapaxes(-1, -2), len(ps))):
        for name, kernel in zip(columns, (_hs_predictability, _hs_coherence, _linear_entropy)):
            assert_same_bytes(got[name], kernel(states).repeat(repeat))


def test_a_non_x_pair_is_rejected_by_the_public_concurrence():
    # the engine's X reading is unchecked; the public X reader checks the shape
    _, amplitudes, layout, _ = _block_columns(ChannelKind.ADC, 0.0, 0.37, np.array([0.2, 0.6]))
    leaky = _reduced(amplitudes, layout, PAIRS["AB"])[0].copy()
    leaky[1, 0, 1] = leaky[1, 1, 0] = 1e-9
    with pytest.raises(ValueError, match=r"not an X state: entry of modulus 1e-09 "):
        concurrence_x_state(leaky)


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", BLOCKS, ids=block_ids)
def test_real_amplitudes_measure_as_their_complex_copies_bytewise(block, ps):
    kind, mu = block
    for x in XS:
        psi, sys_layout = initial_state(kind, x)
        amplitudes, layout = dilate_block(kind, ps, mu, psi, sys_layout)
        assert amplitudes.dtype == np.float64
        c = psi.reshape(1, -1).T  # the entries (a, d, b) of A's initial marginal
        initial = np.stack([c[0] * c[0], c[-1] * c[-1], c[0] * c[1]])  # c0 c0, c-1 c-1, c0 c1
        got, got_min = _measure_columns(amplitudes, layout, initial)
        want, want_min = _measure_columns(
            amplitudes.astype(complex), layout, initial.astype(complex))
        assert list(got) == list(want)
        for name in want:
            assert_same_bytes(got[name], want[name])
        pairs = [pair for pair in PAIRS.values() if set(pair) <= set(layout.labels)]
        got_pairs = _reduced(amplitudes, layout, *pairs)
        want_pairs = _reduced(amplitudes.astype(complex), layout, *pairs)
        assert got_pairs.tobytes() == want_pairs.real.tobytes()
        assert not want_pairs.imag.any()
        # every PPT minimum is read from the eigen-table, phase damping's too
        assert_same_bytes(got_min, want_min)


#: sigma_y, which the paper's bit-phase flip and depolarizing pairs take; the
#: engine takes the real XZ = -i sigma_y.
SY = np.array([[0, -1j], [1j, 0]])
#: Each sigma_y kind's weights (keep, flip) at noise p.
SIGMA_Y_WEIGHTS = {ChannelKind.BPFC: lambda p: (np.sqrt(1 - p), np.sqrt(p)),
                   ChannelKind.DC: lambda p: (np.sqrt((1 + p) / 2), np.sqrt((1 - p) / 2))}


@pytest.mark.parametrize("ps", BLOCK_PS.values(), ids=BLOCK_PS.keys())
@pytest.mark.parametrize("kind", SIGMA_Y_WEIGHTS, ids=lambda k: k.value)
def test_the_sigma_y_route_measures_as_the_real_route_bytewise(kind, ps):
    # the engine's amplitudes are those of the complex stack [keep I,
    # flip sigma_y] times -i where E is |1>, and every column and PPT minimum
    # measured from the complex ones has the bits of the engine's real block
    keep, flip = SIGMA_Y_WEIGHTS[kind](ps)
    stack = np.stack([np.multiply.outer(keep, np.eye(2)), np.multiply.outer(flip, SY)], axis=1)
    for x in XS:
        got, amplitudes, layout, got_min = _block_columns(kind, 0.0, x, ps)
        psi, sys_layout = initial_state(kind, x)
        phased, phased_layout = _dilate(stack, psi, sys_layout)
        assert phased.dtype == np.complex128 and phased_layout == layout
        assert np.array_equal(phased * [1, -1j, 1, -1j], amplitudes)  # rows |s, e>
        c = psi.reshape(1, -1).T
        want, want_min = _measure_columns(phased, layout, np.stack([c[0] * c[0], c[1] * c[1],
                                                                    c[0] * c[1]]))
        assert list(got) == list(want)
        for name in want:
            assert_same_bytes(got[name], want[name])
        assert_same_bytes(got_min, want_min)


@pytest.mark.parametrize("ps", PS.values(), ids=PS.keys())
@pytest.mark.parametrize("block", [b for b in BLOCKS if b[0].n_system_qubits == 2], ids=block_ids)
def test_ab_ppt_minimum_from_the_table_matches_the_x_blocks_bytewise(block, ps):
    # the A-B pair's PPT minimum is read from two more rows of the block's
    # eigen-table; the reference is _ppt_min of the pair, as verify solved it
    kind, mu = block
    for x in XS:
        _, amplitudes, layout, ppt_min = _block_columns(kind, mu, x, ps)
        assert ppt_min.shape == (4, len(ps))
        assert_same_bytes(ppt_min[0], _ppt_min(_reduced(amplitudes, layout, PAIRS["AB"])[0]))


def bisection_by_x(x):
    """The sudden-death bracket of one x: fifteen 17-point blocks, one at a time."""
    psi, sys_layout = initial_state(ChannelKind.ADC, x)
    lo, hi = 0.0, 1.0
    for _ in range(15):
        ps = np.linspace(lo, hi, 17)
        amplitudes, layout = dilate_block(ChannelKind.ADC, ps, 0.0, psi, sys_layout)
        ab = _reduced(amplitudes, layout, PAIRS["AB"])[0]
        i = int(np.flatnonzero(_x_concurrence(*_x_entries(ab)) > 0.0)[-1])
        lo, hi = ps[i], ps[i + 1]
    return float(0.5 * (lo + hi))


def test_stacked_bisection_matches_the_loop_over_x_bytewise():
    xs = np.array([0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.7])
    got = _sudden_death_bisection(xs)
    assert got.shape == xs.shape
    assert got.tobytes() == np.array([bisection_by_x(x) for x in xs.tolist()]).tobytes()
    # any shape of x, each x bracketed on its own
    assert _sudden_death_bisection(xs.reshape(2, 4)).tolist() == got.reshape(2, 4).tolist()
    assert _sudden_death_bisection(0.3).shape == ()
