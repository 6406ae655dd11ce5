import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrsweep.linalg import (
    DensityOperator,
    SubsystemLayout,
    check_density,
    check_norms,
    hermitian_eigenvalues,
    outer,
    partial_trace,
    partial_transpose,
    qubits,
    state_vector,
)
from ccrsweep.measures import linear_entropy

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_density(rng, dim, layout=None):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(m, layout or SubsystemLayout(("S",), (dim,)))


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsystemLayout(("A", "A"), (2, 2))

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            SubsystemLayout(("A", "B"), (2, 1))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown subsystem"):
            qubits("A", "B").position("C")

    def test_reduced_layout_keeps_layout_order(self):
        lay = qubits("A", "B", "E_A", "E_B")
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1.0
        assert partial_trace(outer(psi, lay), {"E_A", "A"}).layout.labels == ("A", "E_A")
        assert lay.dim == 16


class TestStateAndOuter:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            state_vector([1.0, 1.0])

    def test_result_is_readonly(self):
        psi = state_vector([1.0, 0.0])
        with pytest.raises(ValueError):
            psi[0] = 0.5

    def test_basis_state(self):
        rho = outer([1.0, 0.0], qubits("A"))
        assert np.array_equal(rho.mat, np.diag([1.0, 0.0]))

    def test_bell_projector(self):
        rho = outer(BELL, qubits("A", "B"))
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.abs(rho.mat - expected).max() < 1e-15

    def test_outer_is_pure(self):
        rng = np.random.default_rng(3)
        for dim in (2, 4, 8):
            rho = outer(random_state(rng, dim), SubsystemLayout(("S",), (dim,)))
            assert abs(linear_entropy(rho)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match layout"):
            outer([1.0, 0.0], qubits("A", "B"))


class TestDensityOperatorValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOperator(np.array([[1.0, 0.1], [0.0, 0.0]]), qubits("A"))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.diag([0.7, 0.7]), qubits("A"))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]), qubits("A"))


class TestStackedChecks:
    def test_density_stack_names_the_bad_row(self):
        good = np.stack([np.diag([0.25, 0.75]), np.eye(2) / 2]).astype(complex)
        check_density(good)
        with pytest.raises(ValueError, match=r"trace must be 1, got \(0\.9\+0j\)"):
            check_density(np.stack([*good, np.diag([0.4, 0.5])]))
        with pytest.raises(ValueError, match="not Hermitian: defect 0.1"):
            check_density(np.stack([*good, np.array([[1.0, 0.1], [0.0, 0.0]])]))
        with pytest.raises(ValueError, match="minimum eigenvalue -0.5 "):
            check_density(np.stack([*good, np.diag([1.5, -0.5])]))

    def test_non_finite_density_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_density(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigenvalues(np.array([[1.0, np.inf], [0.0, 0.0]]))

    def test_non_finite_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_norms(np.array([np.nan, 0j]))
        with pytest.raises(ValueError, match="non-finite"):
            check_norms(np.array([[1.0, 0.0], [np.inf, 0.0]]))

    def test_norm_stack_names_the_bad_row(self):
        check_norms(np.array([[1.0, 0.0], [0.6, 0.8j]]))
        with pytest.raises(ValueError, match=r"\|\|psi\|\|\^2 = 2\.0"):
            check_norms(np.array([[1.0, 0.0], [1.0, 1.0], [0.6, 0.8]]))

    def test_stacked_eigenvalues(self):
        rng = np.random.default_rng(5)
        mats = np.stack([random_density(rng, 4).mat for _ in range(3)])
        got = hermitian_eigenvalues(mats)
        for lam, m in zip(got, mats):
            assert np.array_equal(lam, hermitian_eigenvalues(m))


class TestPartialTrace:
    def test_damped_pair_marginal(self):
        # Global amplitudes of two amplitude-damped qubits, built by hand:
        # x|0000> + y[(1-p)|1100> + sqrt(p(1-p))(|1001>+|0110>) + p|0011>]
        # has marginal rho_A = diag(x^2 + p y^2, (1-p) y^2).
        x, p = 0.3, 0.45
        y = np.sqrt(1 - x * x)
        psi = np.zeros(16, dtype=complex)
        psi[0b0000] = x
        psi[0b1100] = y * (1 - p)
        psi[0b1001] = y * np.sqrt(p * (1 - p))
        psi[0b0110] = y * np.sqrt(p * (1 - p))
        psi[0b0011] = y * p
        rho_a = partial_trace(outer(psi, qubits("A", "B", "E_A", "E_B")), {"A"})
        expected = np.diag([x * x + p * y * y, (1 - p) * y * y])
        assert np.abs(rho_a.mat - expected).max() <= 1e-12
        assert rho_a.layout.labels == ("A",)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        lay = SubsystemLayout(("A", "B"), (2, 3))
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = DensityOperator(np.kron(rho_a.mat, rho_b.mat), lay)
        back = partial_trace(joint, {"A"})
        assert np.abs(back.mat - rho_a.mat).max() <= 1e-12

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(13)
        lay = qubits("A", "B", "C")
        psi = random_state(rng, 8)
        rho = outer(psi, lay)
        got = partial_trace(rho, {"A", "B"})
        # independent oracle: rho_AB[ab, a'b'] = sum_c psi[abc] conj(psi[a'b'c])
        t = psi.reshape(2, 2, 2)
        expected = np.einsum("abc,xyc->abxy", t, t.conj()).reshape(4, 4)
        assert np.abs(got.mat - expected).max() <= 1e-12

    def test_keep_everything_is_identity(self):
        rho = outer(BELL, qubits("A", "B"))
        assert partial_trace(rho, {"A", "B"}) is rho

    def test_nested_traces_consistent(self):
        rng = np.random.default_rng(17)
        lay = qubits("A", "B", "C")
        rho = outer(random_state(rng, 8), lay)
        one_step = partial_trace(rho, {"A"})
        two_step = partial_trace(partial_trace(rho, {"A", "B"}), {"A"})
        assert np.abs(one_step.mat - two_step.mat).max() <= 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(outer(BELL, qubits("A", "B")), set())

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown subsystem"):
            partial_trace(outer(BELL, qubits("A", "B")), {"Q"})


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        rho = DensityOperator(np.diag([0.1, 0.2, 0.3, 0.4]), qubits("A", "B"))
        assert np.array_equal(partial_transpose(rho, "A"), rho.mat)

    def test_involutive_and_structure_preserving(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 6, SubsystemLayout(("A", "B"), (2, 3)))
        pt = partial_transpose(rho, "B")
        assert np.trace(pt) == pytest.approx(1.0)
        assert np.abs(pt - pt.conj().T).max() <= 1e-12
        # transposing the same factor again restores the input exactly
        twice = np.swapaxes(pt.reshape(2, 3, 2, 3), 1, 3).reshape(6, 6)
        assert np.array_equal(twice, rho.mat)

    def test_bell_transpose_min_eigenvalue(self):
        rho = outer(BELL, qubits("A", "B"))
        lam = hermitian_eigenvalues(partial_transpose(rho, "A"))
        assert lam[0] == pytest.approx(-0.5, abs=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown subsystem"):
            partial_transpose(outer(BELL, qubits("A", "B")), "Z")


class TestHermitianEigenvalues:
    def test_diagonal(self):
        lam = hermitian_eigenvalues(np.diag([0.7, 0.3]))
        assert np.allclose(lam, [0.3, 0.7])

    def test_bell_transpose_spectrum(self):
        # closed form: the central 2x2 block [[0, 1/2], [1/2, 0]] contributes
        # +-1/2, the two corner entries contribute 1/2 each
        pt = partial_transpose(outer(BELL, qubits("A", "B")), "A")
        assert np.allclose(hermitian_eigenvalues(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(29)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g + g.conj().T
        lam = hermitian_eigenvalues(m)
        _, vecs = np.linalg.eigh(m)  # independent decomposition
        residual = np.abs(vecs @ np.diag(lam) @ vecs.conj().T - m).max()
        assert residual <= 1e-10
        assert lam.sum() == pytest.approx(np.trace(m).real, abs=1e-10)
        assert np.all(np.diff(lam) >= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.ones((2, 3)))


def purity(rho):
    """Tr rho^2, read from the library as 1 - linear entropy."""
    return 1.0 - linear_entropy(rho)


class TestPurity:
    def test_pure_projector(self):
        assert purity(outer(BELL, qubits("A", "B"))) == pytest.approx(1.0)

    def test_maximally_mixed_qubit(self):
        assert purity(DensityOperator(np.eye(2) / 2, qubits("A"))) == pytest.approx(0.5)

    def test_damped_marginal(self):
        # rho_A = diag((1+p)/2, (1-p)/2) at p = 1/2: Tr rho^2 = 9/16 + 1/16
        rho = DensityOperator(np.diag([0.75, 0.25]), qubits("A"))
        assert purity(rho) == pytest.approx(0.625, abs=1e-12)

    def test_equals_eigenvalue_squares(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng, 5)
        lam = hermitian_eigenvalues(rho.mat)
        assert abs(purity(rho) - float((lam**2).sum())) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (3, 2)]))
def test_partial_trace_preserves_trace_property(seed, dims):
    rng = np.random.default_rng(seed)
    labels = tuple("ABCD"[: len(dims)])
    lay = SubsystemLayout(labels, dims)
    rho = outer(random_state(rng, lay.dim), lay)

    def sequential_partial_trace(keep):
        # reference: trace out one factor at a time with np.trace, the last first
        tensor = rho.mat.reshape(dims + dims)
        remaining = list(dims)
        for i in sorted(set(range(len(dims))) - set(lay.positions(keep)), reverse=True):
            tensor = np.trace(tensor, axis1=i, axis2=i + len(remaining))
            remaining.pop(i)
        d = int(np.prod(remaining))
        return tensor.reshape(d, d)

    for keep in [{label} for label in labels] + [set(labels[1:]), {labels[0], labels[-1]}]:
        expected = sequential_partial_trace(keep)
        assert np.abs(partial_trace(rho, keep).mat - expected).max() <= 1e-15
    for label in labels:
        reduced = partial_trace(rho, {label})
        assert np.trace(reduced.mat).real == pytest.approx(1.0, abs=1e-12)
        lam = hermitian_eigenvalues(reduced.mat)
        assert lam[0] >= -1e-10
