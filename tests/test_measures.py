import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrsweep.linalg import DensityOperator, SubsystemLayout, outer, qubits, partial_trace
from ccrsweep.measures import (
    concurrence_x_state,
    correlated_coherence_hs,
    hs_coherence,
    hs_predictability,
    is_ppt,
    linear_entropy,
    ppt_min_eigenvalue,
    re_correlated_coherence,
    sector_decomposition,
    von_neumann_entropy,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def damped_pair_state(x, p):
    """Two amplitude-damped qubits on (A, B, E_A, E_B), amplitudes by hand."""
    y = math.sqrt(1 - x * x)
    psi = np.zeros(16, dtype=complex)
    psi[0b0000] = x
    psi[0b1100] = y * (1 - p)
    psi[0b1001] = y * math.sqrt(p * (1 - p))
    psi[0b0110] = y * math.sqrt(p * (1 - p))
    psi[0b0011] = y * p
    return psi, qubits("A", "B", "E_A", "E_B")


def dephased_pair_state(x, p):
    """Two phase-damped qubits on (A, B, E_A, E_B), amplitudes by hand."""
    y = math.sqrt(1 - x * x)
    psi = np.zeros(16, dtype=complex)
    psi[0b0000] = x
    psi[0b1100] = y * (1 - p)
    psi[0b1110] = y * math.sqrt(p * (1 - p))
    psi[0b1101] = y * math.sqrt(p * (1 - p))
    psi[0b1111] = y * p
    return psi, qubits("A", "B", "E_A", "E_B")


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, SubsystemLayout(("S",), (dim,)))


class TestHsCoherence:
    def test_incoherent_state(self):
        rho = DensityOperator(np.diag([0.2, 0.3, 0.1, 0.4]), qubits("A", "B"))
        assert hs_coherence(rho) == 0.0

    def test_phase_flipped_qubit(self):
        # rho_A = [[x^2, (1-2p)xy], [(1-2p)xy, y^2]] has C = 2(1-2p)^2 x^2 y^2
        x, p = 0.5, 0.25
        y = math.sqrt(1 - x * x)
        off = (1 - 2 * p) * x * y
        rho = DensityOperator(np.array([[x * x, off], [off, y * y]]), qubits("A"))
        assert hs_coherence(rho) == pytest.approx(0.09375, abs=1e-14)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 4)
        frob = float((np.abs(rho.mat) ** 2).sum())
        diag = float((rho.mat.diagonal().real ** 2).sum())
        assert abs(hs_coherence(rho) - (frob - diag)) <= 1e-12


class TestHsPredictability:
    def test_maximally_mixed(self):
        assert hs_predictability(DensityOperator(np.eye(2) / 2, qubits("A"))) == 0.0

    def test_basis_state(self):
        assert hs_predictability(outer([1, 0], qubits("A"))) == pytest.approx(0.5)

    def test_damped_marginal(self):
        # rho_A = diag((1+p)/2, (1-p)/2) gives p^2/2
        for p in (0.0, 0.3, 0.8, 1.0):
            rho = DensityOperator(np.diag([(1 + p) / 2, (1 - p) / 2]), qubits("A"))
            assert hs_predictability(rho) == pytest.approx(p * p / 2, abs=1e-14)


class TestLinearEntropy:
    def test_initial_pair_marginal(self):
        for x in (0.2, 0.5, 0.9):
            rho = DensityOperator(np.diag([x * x, 1 - x * x]), qubits("A"))
            assert linear_entropy(rho) == pytest.approx(2 * x * x * (1 - x * x), abs=1e-14)

    def test_pure_state(self):
        assert linear_entropy(outer(BELL, qubits("A", "B"))) == pytest.approx(0.0, abs=1e-15)

    def test_correlated_damping_marginal(self):
        # rho_A = diag(x^2 + (1-x^2)p, (1-p)(1-x^2))
        x, p = 0.6, 0.35
        y2 = 1 - x * x
        rho = DensityOperator(np.diag([x * x + y2 * p, (1 - p) * y2]), qubits("A"))
        expected = 1 - (x * x + y2 * p) ** 2 - (1 - p) ** 2 * y2**2
        assert linear_entropy(rho) == pytest.approx(expected, abs=1e-14)


class TestCorrelatedCoherence:
    def test_damped_pair_joint_blocks(self):
        psi, lay = damped_pair_state(1 / math.sqrt(2), 0.5)
        rho = outer(psi, lay)
        assert correlated_coherence_hs(rho, ("A", "B")) == pytest.approx(0.125, abs=1e-13)

    def test_product_incoherent_state(self):
        rho = DensityOperator(np.diag([0.4, 0.1, 0.2, 0.3]), qubits("A", "B"))
        assert correlated_coherence_hs(rho, ("A", "B")) == 0.0

    def test_damped_pair_system_environment_block(self):
        x, p = 0.45, 0.3
        psi, lay = damped_pair_state(x, p)
        rho = outer(psi, lay)
        y2 = 1 - x * x
        assert correlated_coherence_hs(rho, ("A", "E_A")) == pytest.approx(
            2 * y2**2 * p * (1 - p), abs=1e-13
        )
        assert correlated_coherence_hs(rho, ("A", "E_B")) == pytest.approx(
            2 * x * x * y2 * p * (1 - p), abs=1e-13
        )

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            correlated_coherence_hs(outer(BELL, qubits("A", "B")), ())

    def test_invariant_under_incoherent_environment_unitaries(self):
        # a permutation or phase rotation on E_A keeps its local coherence at
        # zero, so the A-E_A correlated coherence must not move
        x, p = 0.3, 0.45
        psi, lay = damped_pair_state(x, p)
        baseline = correlated_coherence_hs(outer(psi, lay), ("A", "E_A"))
        t = psi.reshape(2, 2, 2, 2)
        for u in (np.array([[0, 1], [1, 0]], dtype=complex),
                  np.diag([1.0, np.exp(0.7j)])):
            rotated = np.einsum("ef,abfc->abec", u, t).reshape(16)
            rho = outer(rotated, lay)
            assert hs_coherence(partial_trace(rho, {"E_A"})) <= 1e-14
            assert correlated_coherence_hs(rho, ("A", "E_A")) == pytest.approx(
                baseline, abs=1e-12
            )

    def test_blocks_excluding_rotated_label_exactly_invariant(self):
        x, p = 0.3, 0.45
        psi, lay = damped_pair_state(x, p)
        baseline = correlated_coherence_hs(outer(psi, lay), ("A", "B"))
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        rotated = np.einsum("ef,abcf->abce", u, psi.reshape(2, 2, 2, 2)).reshape(16)
        assert correlated_coherence_hs(outer(rotated, lay), ("A", "B")) == pytest.approx(
            baseline, abs=1e-15
        )


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(outer(BELL, qubits("A", "B"))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityOperator(np.eye(2) / 2, qubits("A"))) == pytest.approx(1.0)

    def test_quarter_three_quarter(self):
        # -(1/4 log2 1/4 + 3/4 log2 3/4), evaluated independently
        rho = DensityOperator(np.diag([0.25, 0.75]), qubits("A"))
        assert von_neumann_entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)


class TestMutualInformation:
    def test_product_state(self):
        # diag(0.4, 0.6) on A times diag(0.8, 0.2) on B
        rho = DensityOperator(np.diag([0.32, 0.08, 0.48, 0.12]), qubits("A", "B"))
        assert re_correlated_coherence(rho, ("A", "B")) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        rho = outer(BELL, qubits("A", "B"))
        assert re_correlated_coherence(rho, ("A", "B")) == pytest.approx(2.0, abs=1e-12)

    def test_damped_pair_value(self):
        # frozen from an eigensolve of the closed-form joint matrix at
        # x = 1/sqrt(2), p = 1/2
        psi, lay = damped_pair_state(1 / math.sqrt(2), 0.5)
        mi = re_correlated_coherence(outer(psi, lay), ("A", "B"))
        assert mi == pytest.approx(0.42080417553255334, abs=1e-10)

    def test_three_blocks_rejected(self):
        psi, lay = damped_pair_state(0.5, 0.5)
        with pytest.raises(ValueError, match="exactly two blocks"):
            re_correlated_coherence(outer(psi, lay), ("A", "B", "E_A"))


class TestConcurrence:
    """Concurrence of pure pairs a|00> + b|11>, whose closed form is 2|ab|."""

    def test_bell_is_maximal(self):
        assert concurrence_x_state(outer(BELL, qubits("A", "B"))) == pytest.approx(1.0)

    def test_product_state(self):
        for psi in np.eye(4, dtype=complex):  # |00>, |01>, |10>, |11>
            assert concurrence_x_state(outer(psi, qubits("A", "B"))) == 0.0

    def test_partially_entangled_pair(self):
        x = 0.6
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = x, math.sqrt(1 - x * x)
        assert concurrence_x_state(outer(psi, qubits("A", "B"))) == pytest.approx(0.96, abs=1e-12)

    def test_squared_concurrence_is_twice_entropy(self):
        rng = np.random.default_rng(43)
        lay = qubits("A", "B")
        for _ in range(20):
            a, b = random_state(rng, 2)
            psi = np.array([a, 0, 0, b])
            c = concurrence_x_state(outer(psi, lay))
            assert c == pytest.approx(2 * abs(a * b), abs=1e-12)
            s = linear_entropy(partial_trace(outer(psi, lay), {"A"}))
            assert c * c == pytest.approx(2 * s, abs=1e-12)


class TestXStateConcurrence:
    def test_bell_projector(self):
        assert concurrence_x_state(outer(BELL, qubits("A", "B"))) == pytest.approx(1.0)

    def test_sudden_death_boundary(self):
        # joint state of the damped pair: concurrence hits zero at p = x/y
        for x in (0.3, 0.5):
            p = x / math.sqrt(1 - x * x)
            psi, lay = damped_pair_state(x, p)
            rho_ab = partial_trace(outer(psi, lay), {"A", "B"})
            assert concurrence_x_state(rho_ab) == pytest.approx(0.0, abs=1e-12)
            below = partial_trace(outer(*damped_pair_state(x, p - 0.05)), {"A", "B"})
            assert concurrence_x_state(below) > 0.0

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4) / 4, qubits("A", "B"))
        assert concurrence_x_state(rho) == 0.0

    def test_non_x_matrix_rejected(self):
        m = np.full((4, 4), 0.25, dtype=complex)
        rho = DensityOperator(m, qubits("A", "B"))
        with pytest.raises(ValueError, match="not an X state"):
            concurrence_x_state(rho)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="two-qubit"):
            concurrence_x_state(DensityOperator(np.eye(2) / 2, qubits("A")))

    def test_stacked_block_with_one_non_x_row_rejected(self):
        rows = [partial_trace(outer(*damped_pair_state(0.4, p)), {"A", "B"}).mat
                for p in (0.1, 0.5, 0.9)]
        assert concurrence_x_state(np.stack(rows)).shape == (3,)
        leaky = rows[1].copy()
        leaky[0, 1] = leaky[1, 0] = 3e-12
        with pytest.raises(ValueError, match=r"not an X state: entry of modulus 3e-12 "):
            concurrence_x_state(np.stack([rows[0], leaky, rows[2]]))


class TestPpt:
    def test_bell_state_is_entangled(self):
        assert not is_ppt(outer(BELL, qubits("A", "B")), "A")

    def test_positive_concurrence_implies_transpose_negativity(self):
        # on the damped-pair family the closed-form concurrence and the
        # transposition test must agree about entanglement
        for x in (0.2, 0.5, 1 / math.sqrt(2)):
            for p in (0.0, 0.3, 0.6, 0.9, 1.0):
                psi, lay = damped_pair_state(x, p)
                rho_ab = partial_trace(outer(psi, lay), {"A", "B"})
                conc = concurrence_x_state(rho_ab)
                ppt = is_ppt(rho_ab, "A")
                if conc > 1e-10:
                    assert not ppt
                if ppt:
                    assert conc <= 1e-10

    def test_dephased_environment_pair_separable(self):
        for x in (0.1, 0.5, 0.9):
            for p in (0.0, 0.4, 1.0):
                psi, lay = dephased_pair_state(x, p)
                rho_env = partial_trace(outer(psi, lay), {"E_A", "E_B"})
                assert is_ppt(rho_env, "E_A")

    def test_flip_recorded_environment_separable(self):
        # rho_AEA of the bit-flipped pair equals its own partial transpose
        s = 0.35 / 2
        c = math.sqrt((1 - s) * s) / 2
        m = np.array(
            [
                [(1 - s) / 2, 0, 0, c],
                [0, s / 2, c, 0],
                [0, c, (1 - s) / 2, 0],
                [c, 0, 0, s / 2],
            ],
            dtype=complex,
        )
        rho = DensityOperator(m, qubits("A", "E_A"))
        assert is_ppt(rho, "A")


class TestSectorDecomposition:
    def test_dephased_pair_sector_weights(self):
        x, p = 0.45, 0.3
        y2 = 1 - x * x
        psi, lay = dephased_pair_state(x, p)
        sectors = sector_decomposition(psi, lay)
        assert sectors[frozenset({"A", "B"})] == pytest.approx(
            2 * x * x * y2 * (1 - p) ** 2, abs=1e-13
        )
        assert sectors[frozenset({"E_A", "E_B"})] == pytest.approx(
            4 * y2**2 * (1 - p) ** 2 * p * p, abs=1e-13
        )
        assert sectors[frozenset({"A", "B", "E_A", "E_B"})] == pytest.approx(
            2 * x * x * y2 * p * p, abs=1e-13
        )

    def test_basis_state_has_no_sectors(self):
        psi = np.zeros(4, dtype=complex)
        psi[2] = 1.0
        sectors = sector_decomposition(psi, qubits("A", "B"))
        assert sectors == {}
        assert sum(sectors.values()) == 0.0

    def test_total_matches_projector_coherence(self):
        rng = np.random.default_rng(47)
        lay = qubits("A", "B", "C")
        for _ in range(10):
            psi = random_state(rng, 8)
            sectors = sector_decomposition(psi, lay)
            total = sum(sectors.values())
            assert total == pytest.approx(hs_coherence(outer(psi, lay)), abs=1e-12)

    def test_non_qubit_layout_rejected(self):
        with pytest.raises(ValueError, match="qubit layout"):
            sector_decomposition(np.eye(6)[0], SubsystemLayout(("A", "B"), (2, 3)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (3, 3)]))
def test_complementarity_saturates_for_pure_states(seed, dims):
    # predictability + coherence + linear entropy of any marginal of a pure
    # state adds up to (d-1)/d for that marginal's dimension
    rng = np.random.default_rng(seed)
    labels = tuple("ABC"[: len(dims)])
    lay = SubsystemLayout(labels, dims)
    rho = outer(random_state(rng, lay.dim), lay)
    for label, d in zip(labels, dims):
        marginal = partial_trace(rho, {label})
        total = (
            hs_predictability(marginal) + hs_coherence(marginal) + linear_entropy(marginal)
        )
        assert abs(total - (d - 1) / d) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_stacks_give_the_per_matrix_values(seed, n):
    # every measure on a stack (n, 4, 4) of two-qubit states, or on a stack
    # of four-qubit pure states, equals the measure of each matrix alone
    rng = np.random.default_rng(seed)
    lay = qubits("A", "B", "E_A", "E_B")
    psis = np.stack([random_state(rng, 16) for _ in range(n)])
    globals_ = [outer(psi, lay) for psi in psis]
    pairs = [partial_trace(rho, {"A", "E_A"}) for rho in globals_]
    stack = np.stack([rho.mat for rho in pairs])
    for measure in (hs_coherence, hs_predictability, linear_entropy, von_neumann_entropy):
        got = measure(stack)
        assert got.shape == (n,)
        for value, rho in zip(got, pairs):
            assert abs(value - measure(rho)) <= 1e-14, measure.__name__
    for measure in (correlated_coherence_hs, re_correlated_coherence):
        got = measure(stack, ("A", "E_A"))
        for value, rho, rho_g in zip(got, pairs, globals_):
            assert abs(value - measure(rho_g, ("A", "E_A"))) <= 1e-14, measure.__name__
    assert list(is_ppt(stack, "A")) == [is_ppt(rho, "A") for rho in pairs]
    for value, rho in zip(ppt_min_eigenvalue(stack, "A"), pairs):
        assert abs(value - ppt_min_eigenvalue(rho, "A")) <= 1e-14
    sectors = sector_decomposition(psis, lay)
    for i, psi in enumerate(psis):
        alone = sector_decomposition(psi, lay)
        assert sectors.keys() == alone.keys()
        for labels, weight in alone.items():
            assert abs(sectors[labels][i] - weight) <= 1e-14

    def pairing_sectors(psi):
        # reference: every basis pair (a, b) with nonzero amplitudes in some
        # state, grouped by the factors its multi-indices differ on
        digits = np.array(np.unravel_index(np.arange(lay.dim), lay.dims))
        differ = digits[:, :, np.newaxis] != digits[:, np.newaxis, :]
        sector = np.tensordot(1 << np.arange(len(lay.dims)), differ, 1)
        prob = np.abs(psi) ** 2
        w = prob[..., :, np.newaxis] * prob[..., np.newaxis, :]
        nonzero = (psi != 0.0).reshape(-1, lay.dim)
        supported = (nonzero[:, :, np.newaxis] & nonzero[:, np.newaxis, :]).any(axis=0)
        codes = sorted(set(sector[supported & (sector > 0)].tolist()))
        return {
            frozenset(lab for k, lab in enumerate(lay.labels) if code >> k & 1):
                w[..., sector == code].sum(axis=-1)
            for code in codes
        }

    # the XOR form against that pairing on the stack, on basis states and on
    # states with zero amplitudes
    sparse = psis * (rng.random((n, 16)) < 0.3)
    sparse[:, 5] += 1.0
    sparse /= np.linalg.norm(sparse, axis=1, keepdims=True)
    for states in (psis, np.eye(16)[[3]], np.eye(16)[[0, 9]], sparse, sparse[0]):
        got, want = sector_decomposition(states, lay), pairing_sectors(states)
        assert got.keys() == want.keys()
        for labels, weight in want.items():
            assert np.abs(got[labels] - weight).max() <= 1e-15
