import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrsweep.channels import (
    _KRAUS_PAIRS,
    _NO_DILATION,
    ChannelKind,
    ChannelSpec,
    _kraus_stack,
    _operator_sums,
    dilate_block,
)
from ccrsweep.linalg import outer, partial_trace, qubits
from ccrsweep.measures import linear_entropy
from ccrsweep.reports import PAIRS, _block_columns, _reduced, initial_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1, -1]).astype(complex)
I2 = np.eye(2, dtype=complex)
DECAY = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
EXCITED = np.diag([0, 1]).astype(complex)  # |1><1|
XZ = np.array([[0, -1], [1, 0]], dtype=complex)  # -i sigma_y

#: Each memoryless kind's Kraus pair on one qubit at noise p, written out
#: from the README channel table.
README_PAIRS = {
    ChannelKind.ADC: lambda p: (np.diag([1, math.sqrt(1 - p)]), math.sqrt(p) * DECAY),
    ChannelKind.CADC: lambda p: README_PAIRS[ChannelKind.ADC](p),  # its memoryless part
    ChannelKind.PDC: lambda p: (np.diag([1, math.sqrt(1 - p)]), math.sqrt(p) * EXCITED),
    ChannelKind.BFC: lambda p: (math.sqrt(1 - p / 2) * I2, math.sqrt(p / 2) * SX),
    ChannelKind.PFC: lambda p: (math.sqrt(1 - p) * I2, math.sqrt(p) * SZ),
    ChannelKind.BPFC: lambda p: (math.sqrt(1 - p) * I2, math.sqrt(p) * XZ),
    ChannelKind.DC: lambda p: (math.sqrt((1 + p) / 2) * I2, math.sqrt((1 - p) / 2) * XZ),
}

#: The sigma_y kinds' pairs as the paper writes them, with sigma_y itself.
SIGMA_Y_PAIRS = {
    ChannelKind.BPFC: lambda p: (math.sqrt(1 - p) * I2, math.sqrt(p) * SY),
    ChannelKind.DC: lambda p: (math.sqrt((1 + p) / 2) * I2, math.sqrt((1 - p) / 2) * SY),
}


def readme_correlated(p):
    """CADC's row at mu = 1 from the README channel table: K_0 =
    diag(1, 1, 1, sqrt(1-p)), K_3 = sqrt(p) |00><11| and K_1 = K_2 = 0."""
    return [np.diag([1, 1, 1, math.sqrt(1 - p)]), np.zeros((4, 4)), np.zeros((4, 4)),
            math.sqrt(p) * np.eye(4, k=3)]


#: Every dilatable channel (kind, mu): the keys of the Kraus table.
DILATABLE = [(kind, 0.0) for kind in ChannelKind] + [(ChannelKind.CADC, 1.0)]

ALL_KINDS = list(ChannelKind)
P_GRID = [round(0.1 * i, 1) for i in range(11)]


def spec_for(kind, p, mu=None):
    if kind is ChannelKind.CADC:
        return ChannelSpec(kind, p, 1.0 if mu is None else mu)
    return ChannelSpec(kind, p)


def dilate_one(spec, psi, lay):
    """The spec's point as a block of one of dilate_block: its state and layout."""
    amplitudes, layout = dilate_block(spec.kind, np.array([spec.p]), spec.mu, psi, lay)
    return amplitudes[0], layout


def kraus_ops(spec):
    """The spec's Kraus operators (nK, d, d): the one-p slice of _kraus_stack, unpruned."""
    return _kraus_stack(spec.kind, np.array([spec.p]), spec.mu)[0]


def completeness_defect(ops):
    """The completeness defect of one operator set (nK, d, d) by _operator_sums."""
    return float(_operator_sums(ops[np.newaxis])[0][0])


def operator_sum(ops, rho):
    """The image of one state (d, d) under one operator set (nK, d, d) by _operator_sums."""
    return _operator_sums(ops[np.newaxis], rho[np.newaxis])[1][0, 0]


def system_state(kind, x):
    y = math.sqrt(1 - x * x)
    if kind.n_system_qubits == 2:
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = x, y
        return psi, qubits("A", "B")
    return np.array([x, y], dtype=complex), qubits("A")


class TestChannelSpec:
    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="p must lie"):
            ChannelSpec(ChannelKind.ADC, 1.2)

    @pytest.mark.parametrize("kind", ["adc", None, 0])
    def test_kind_must_be_a_channel_kind(self, kind):
        # a name is not coerced: it would fail only later, inside the engine
        with pytest.raises(ValueError, match=f"kind: {kind!r} is not a ChannelKind"):
            ChannelSpec(kind, 0.3)

    @pytest.mark.parametrize("field", ["p", "mu"])
    @pytest.mark.parametrize("value", ["0.3", True, False, np.True_, 0.3j, None, Fraction(3, 10),
                                       np.longdouble(0.3)],
                             ids=["str", "true", "false", "numpy-bool", "complex", "none",
                                  "fraction", "longdouble"])
    def test_p_and_mu_must_be_real(self, field, value):
        # a bool is not taken as 0 or 1, no TypeError leaks out of a comparison,
        # and a Fraction, which numpy's ufuncs cannot take, does not reach the
        # engine, nor a longdouble, which float64 would round
        args = {"p": 0.3, "mu": 0.0, field: value}
        with pytest.raises(ValueError, match=rf"{field} must lie in \[0, 1\], got "):
            ChannelSpec(ChannelKind.CADC, **args)

    def test_numpy_and_integer_numbers_accepted_as_given(self):
        spec = ChannelSpec(ChannelKind.CADC, np.float64(0.25), 1)
        assert (spec.p, spec.mu) == (0.25, 1) and type(spec.mu) is int
        assert ChannelSpec(ChannelKind.ADC, np.int64(1)).p == 1

    def test_mu_only_for_cadc(self):
        with pytest.raises(ValueError, match="mu is only meaningful"):
            ChannelSpec(ChannelKind.PDC, 0.5, mu=0.3)
        ChannelSpec(ChannelKind.CADC, 0.5, mu=0.3)  # fine


class TestDilate:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_adc_survival_amplitude(self, p):
        psi, lay = system_state(ChannelKind.ADC, 1 / math.sqrt(2))
        state, layout = dilate_one(ChannelSpec(ChannelKind.ADC, p), psi, lay)
        assert layout.labels == ("A", "B", "E_A", "E_B")
        # |11>|00> amplitude: sqrt(1-x^2) (1-p)
        assert state[0b1100] == pytest.approx((1 - p) / math.sqrt(2), abs=1e-15)

    def test_adc_global_amplitudes(self):
        x, p = 0.3, 0.45
        y = math.sqrt(1 - x * x)
        psi, lay = system_state(ChannelKind.ADC, x)
        state, layout = dilate_one(ChannelSpec(ChannelKind.ADC, p), psi, lay)
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = x
        expected[0b1100] = y * (1 - p)
        expected[0b1001] = y * math.sqrt(p * (1 - p))
        expected[0b0110] = y * math.sqrt(p * (1 - p))
        expected[0b0011] = y * p
        assert np.abs(state - expected).max() <= 1e-15

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not ChannelKind.DC])
    def test_no_noise_is_identity(self, kind):
        psi, lay = system_state(kind, 0.6)
        state, layout = dilate_one(spec_for(kind, 0.0), psi, lay)
        n = kind.n_system_qubits
        # environment stays |0...0>: system bits sit above the environment bits
        expected = np.zeros(4**n, dtype=complex)
        if n == 2:
            expected[0b0000], expected[0b1100] = psi[0], psi[3]
        else:
            expected[0b00], expected[0b10] = psi[0], psi[1]
        assert np.abs(state - expected).max() <= 1e-15

    def test_depolarizing_identity_sits_at_p_one(self):
        # this channel's convention: p = 1 leaves the qubit intact
        psi, lay = system_state(ChannelKind.DC, 0.6)
        state, layout = dilate_one(ChannelSpec(ChannelKind.DC, 1.0), psi, lay)
        expected = np.zeros(4, dtype=complex)
        expected[0b00], expected[0b10] = psi[0], psi[1]
        assert np.abs(state - expected).max() <= 1e-15

    def test_correlated_full_memory_endpoint(self):
        x = 1 / math.sqrt(2)
        psi, lay = system_state(ChannelKind.CADC, x)
        state, layout = dilate_one(ChannelSpec(ChannelKind.CADC, 1.0, mu=1.0), psi, lay)
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = x   # |00>|00>
        expected[0b0011] = x   # |00>|11>
        assert np.abs(state - expected).max() <= 1e-15

    def test_correlated_memoryless_equals_plain_damping(self):
        psi, lay = system_state(ChannelKind.CADC, 0.4)
        a, _ = dilate_one(ChannelSpec(ChannelKind.CADC, 0.35, mu=0.0), psi, lay)
        b, _ = dilate_one(ChannelSpec(ChannelKind.ADC, 0.35), psi, lay)
        assert np.abs(a - b).max() == 0.0

    def test_correlated_fractional_memory_rejected(self):
        psi, lay = system_state(ChannelKind.CADC, 0.4)
        with pytest.raises(ValueError, match="no dilation"):
            dilate_one(ChannelSpec(ChannelKind.CADC, 0.5, mu=0.5), psi, lay)

    def test_arity_mismatch_rejected(self):
        psi, lay = system_state(ChannelKind.PFC, 0.4)
        with pytest.raises(ValueError, match="acts on 2 qubit"):
            dilate_one(ChannelSpec(ChannelKind.ADC, 0.5), psi, lay)

    def test_depolarizing_rejects_complex_amplitudes(self):
        psi = np.array([1, 1j], dtype=complex) / math.sqrt(2)
        with pytest.raises(ValueError, match="real amplitudes"):
            dilate_one(ChannelSpec(ChannelKind.DC, 0.5), psi, qubits("A"))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", P_GRID)
    def test_norm_and_purity_preserved(self, kind, p):
        psi, lay = system_state(kind, 0.37)
        state, layout = dilate_one(spec_for(kind, p), psi, lay)
        assert abs(float(np.vdot(state, state).real) - 1.0) <= 1e-12
        assert abs(linear_entropy(outer(state, layout))) <= 1e-12

    @pytest.mark.parametrize("kind, mu", [(kind, 0.0) for kind in ALL_KINDS] + [
        (ChannelKind.CADC, 1.0)], ids=lambda v: getattr(v, "value", f"mu={v}"))
    def test_dilated_rows_have_unit_norm(self, kind, mu):
        # dilate_block checks its input only; its image under the isometry
        # keeps the norm, at p at and next to the ends of [0, 1] too
        ps = np.array([0.0, 5e-324, 1e-300, 0.37, 1.0 - 2.0**-53, 1.0])
        for x in (0.0, 0.37, 1 / math.sqrt(2), 1.0):
            amplitudes, _ = dilate_block(kind, ps, mu, *system_state(kind, x))
            norms = np.einsum("pi,pi->p", amplitudes.conj(), amplitudes).real
            assert np.abs(norms - 1.0).max() <= 1e-12, (x, norms)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inner_products_preserved(self, kind):
        # the joint map is an isometry: overlaps of dilated states match
        # overlaps of the inputs
        rng = np.random.default_rng(101)
        n = kind.n_system_qubits
        spec = spec_for(kind, 0.3)
        lay = qubits(*("A", "B")[:n])
        for _ in range(5):
            v1 = rng.normal(size=2**n) + (0 if kind is ChannelKind.DC else 1j) * rng.normal(size=2**n)
            v2 = rng.normal(size=2**n) + (0 if kind is ChannelKind.DC else 1j) * rng.normal(size=2**n)
            v1 = v1 / np.linalg.norm(v1)
            v2 = v2 / np.linalg.norm(v2)
            d1, _ = dilate_one(spec, v1, lay)
            d2, _ = dilate_one(spec, v2, lay)
            assert np.vdot(d1, d2) == pytest.approx(np.vdot(v1, v2), abs=1e-12)


class TestIsometryOverP:
    """The channel stack built once over a block's p grid is, slice by slice,
    the stack built at each p alone, and the dilation contracts those slices."""

    PS = np.linspace(0.0, 1.0, 101)

    @pytest.mark.parametrize(
        "kind, mu", [(kind, 0.0) for kind in ALL_KINDS] + [(ChannelKind.CADC, 1.0)],
        ids=lambda v: getattr(v, "value", f"mu={v}"),
    )
    def test_block_and_kraus_read_per_p_slices_bytewise(self, kind, mu):
        psi, layout = system_state(kind, 0.6)
        amplitudes, _ = dilate_block(kind, self.PS, mu, psi, layout)
        kraus = _kraus_stack(kind, self.PS, mu)
        for i, p in enumerate(self.PS):
            K = _kraus_stack(kind, np.array([p]), mu)
            assert kraus[i].tobytes() == K[0].tobytes()
            alone = np.einsum("pesc,c->pse", K, psi).reshape(-1)
            assert amplitudes[i].tobytes() == alone.tobytes()


class TestKrausSet:
    """One p's Kraus operators, K_e = <e|U|0>_E: the one-p slice of
    _kraus_stack, unpruned, so an operator that vanishes is exactly zero."""

    @pytest.mark.parametrize("p", [0.15, 0.5, 0.85])
    def test_adc_product_structure(self, p):
        ops = kraus_ops(ChannelSpec(ChannelKind.ADC, p))
        k0 = np.diag([1.0, math.sqrt(1 - p)]).astype(complex)
        k1 = math.sqrt(p) * np.array([[0, 1], [0, 0]], dtype=complex)
        expected = [np.kron(a, b) for a in (k0, k1) for b in (k0, k1)]
        assert len(ops) == 4
        for got, want in zip(ops, expected):
            assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not ChannelKind.DC])
    def test_no_noise_collapses_to_identity(self, kind):
        ops = kraus_ops(spec_for(kind, 0.0, mu=0.0 if kind is ChannelKind.CADC else None))
        assert np.abs(ops[0] - np.eye(ops.shape[-1])).max() <= 1e-15
        assert np.all(ops[1:] == 0.0)

    def test_depolarizing_identity_at_p_one(self):
        ops = kraus_ops(ChannelSpec(ChannelKind.DC, 1.0))
        assert np.abs(ops[0] - np.eye(2)).max() <= 1e-15
        assert np.all(ops[1:] == 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("p", [0.3, 0.4])
    def test_memoryless_pair_matches_the_readme_table(self, kind, p):
        # every row as the README channel table writes it: the one-qubit
        # pair, which a two-qubit kind applies to each qubit, with XZ for
        # the sigma_y kinds, and CADC's correlated row at mu = 1
        pair = README_PAIRS[kind](p)
        if kind.n_system_qubits == 2:
            pair = [np.kron(a, b) for a in pair for b in pair]
        rows = [(0.0, pair)] + [(1.0, readme_correlated(p))] * (kind is ChannelKind.CADC)
        for mu, row in rows:
            ops = kraus_ops(ChannelSpec(kind, p, mu))
            assert len(ops) == len(row)
            for got, want in zip(ops, row):
                assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("kind", SIGMA_Y_PAIRS, ids=lambda k: k.value)
    def test_xz_rows_are_the_sigma_y_channel(self, kind):
        # sigma_y = i XZ and the phase cancels in K rho K^dag: the real rows
        # map every state, complex ones too, as the paper's sigma_y pairs do
        rng = np.random.default_rng(36)
        g = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        rhos = g @ g.conj().swapaxes(-1, -2)
        rhos /= np.trace(rhos, axis1=-2, axis2=-1)[:, np.newaxis, np.newaxis]
        _, images = _operator_sums(_kraus_stack(kind, np.array(P_GRID), 0.0), rhos)
        for i, p in enumerate(P_GRID):
            for rho, image in zip(rhos, images[:, i]):
                want = sum(k @ rho @ k.conj().T for k in SIGMA_Y_PAIRS[kind](p))
                assert np.abs(image - want).max() <= 1e-15

    @staticmethod
    def hand_built_correlated_stack(ps):
        """CADC's mu = 1 stack written out by hand, the reference for its
        row of the Kraus table."""
        K = np.zeros(ps.shape + (4, 4, 4))
        K[..., 0, [0, 1, 2], [0, 1, 2]] = 1.0
        K[..., 0, 3, 3] = np.sqrt(1.0 - ps)
        K[..., 3, 0, 3] = np.sqrt(ps)
        return K

    @pytest.mark.parametrize("ps", [
        np.array([0.0, 5e-324, 1e-300, 0.37, 0.5, 1 / math.sqrt(2), 1.0 - 2.0**-53, 1.0]),
        np.sort(np.random.default_rng(17).random((5, 17)), axis=-1)], ids=["edge", "brackets"])
    def test_correlated_row_is_the_hand_built_stack_bytewise(self, ps):
        got = _kraus_stack(ChannelKind.CADC, ps, 1.0)
        want = self.hand_built_correlated_stack(ps)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    def test_the_table_has_one_real_row_per_dilatable_channel(self):
        # no (kind, mu) reads another channel's operators: adc at mu = 1 has no row
        assert len(_KRAUS_PAIRS) == 8 and set(_KRAUS_PAIRS) == set(DILATABLE)
        assert all(matrix.dtype == np.float64 for _, matrix in _KRAUS_PAIRS.values())

    def test_correlated_memory_operators(self):
        # one operator per shared environment state; only |00>_E and |11>_E are reached
        p = 0.6
        ops = kraus_ops(ChannelSpec(ChannelKind.CADC, p, mu=1.0))
        assert len(ops) == 4
        assert np.abs(ops[0] - np.diag([1, 1, 1, math.sqrt(1 - p)])).max() <= 1e-15
        assert np.all(ops[1:3] == 0.0)
        jump = np.zeros((4, 4), dtype=complex)
        jump[0, 3] = math.sqrt(p)
        assert np.abs(ops[3] - jump).max() <= 1e-15

    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_correlated_mixture_is_complete(self, mu):
        for p in (0.0, 0.3, 1.0):
            assert completeness_defect(kraus_ops(ChannelSpec(ChannelKind.CADC, p, mu=mu))) <= 1e-12


class TestValidateKraus:
    """The completeness defect of one operator set, by _operator_sums."""

    def test_identity_set(self):
        assert _operator_sums(np.eye(2).reshape(1, 1, 2, 2))[0][0] == 0.0

    def test_adc_completeness(self):
        assert completeness_defect(kraus_ops(ChannelSpec(ChannelKind.ADC, 0.3))) <= 1e-15

    def test_scaled_identity_defect(self):
        defect = _operator_sums(0.9 * np.eye(2).reshape(1, 1, 2, 2))[0][0]
        assert defect == pytest.approx(0.19, abs=1e-15)


class TestApplyKraus:
    """The operator-sum image of one state under one operator set, by _operator_sums."""

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_adc_joint_coherence_decay(self, p):
        x = 1 / math.sqrt(2)
        psi, lay = system_state(ChannelKind.ADC, x)
        rho = operator_sum(kraus_ops(ChannelSpec(ChannelKind.ADC, p)), outer(psi, lay).mat)
        assert rho[0, 3] == pytest.approx((1 - p) / 2, abs=1e-14)

    def test_identity_set_is_noop(self):
        psi, lay = system_state(ChannelKind.PFC, 0.8)
        rho = outer(psi, lay).mat
        out = operator_sum(np.eye(2, dtype=complex)[np.newaxis], rho)
        assert np.abs(out - rho).max() == 0.0

    def test_incomplete_set_rejected(self):
        # the defect is returned with the image, whose trace it lowers;
        # verify's kraus_completeness row is the one check of it
        psi, lay = system_state(ChannelKind.PFC, 0.8)
        rho = outer(psi, lay).mat
        defects, images = _operator_sums(0.9 * np.eye(2, dtype=complex)[np.newaxis, np.newaxis],
                                         rho[np.newaxis])
        assert defects.tolist() == [pytest.approx(0.19, abs=1e-15)]
        assert np.abs(images[0, 0] - 0.81 * rho).max() <= 1e-15

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", P_GRID)
    def test_agrees_with_dilation_route(self, kind, p):
        # same map whether the environment is modeled explicitly or summed out
        for x in (0.31, 1 / math.sqrt(2)):
            psi, lay = system_state(kind, x)
            spec = spec_for(kind, p)
            via_kraus = operator_sum(kraus_ops(spec), outer(psi, lay).mat)
            state, layout = dilate_one(spec, psi, lay)
            via_dilation = partial_trace(outer(state, layout), set(lay.labels))
            assert np.abs(via_kraus - via_dilation.mat).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.7])
    def test_cadc_mu_grid_against_convex_mixture(self, p):
        # kraus route at fractional mu equals the convex mixture of the two maps
        psi, lay = system_state(ChannelKind.CADC, 0.45)
        rho = outer(psi, lay).mat
        plain = operator_sum(kraus_ops(ChannelSpec(ChannelKind.CADC, p, mu=0.0)), rho)
        memory = operator_sum(kraus_ops(ChannelSpec(ChannelKind.CADC, p, mu=1.0)), rho)
        for mu in (0.25, 0.5, 0.9):
            mixed = operator_sum(kraus_ops(ChannelSpec(ChannelKind.CADC, p, mu=mu)), rho)
            expected = (1 - mu) * plain + mu * memory
            assert np.abs(mixed - expected).max() <= 1e-12

    def test_full_memory_only_doubly_excited_state_decays(self):
        ops = kraus_ops(ChannelSpec(ChannelKind.CADC, 0.8, mu=1.0))
        lay = qubits("A", "B")
        for idx in (0, 1, 2):
            basis = np.zeros(4)
            basis[idx] = 1.0
            rho = operator_sum(ops, outer(basis, lay).mat)
            assert np.abs(rho - np.outer(basis, basis)).max() <= 1e-15
        excited = np.zeros(4)
        excited[3] = 1.0
        rho = operator_sum(ops, outer(excited, lay).mat)
        assert rho[3, 3] == pytest.approx(0.2, abs=1e-15)
        assert rho[0, 0] == pytest.approx(0.8, abs=1e-15)


class TestKrausStack:
    """The Kraus operators over a p grid as one stack, of which each one-p
    set is a slice."""

    GRIDS = {"101": np.linspace(0.0, 1.0, 101), "1001": np.linspace(0.0, 1.0, 1001),
             "endpoints": np.array([1.0, 0.37, 0.0])}

    @pytest.mark.parametrize(
        "kind, mu", [(kind, 0.0) for kind in ALL_KINDS]
        + [(ChannelKind.CADC, 0.5), (ChannelKind.CADC, 1.0)],
        ids=lambda v: getattr(v, "value", f"mu={v}"),
    )
    @pytest.mark.parametrize("grid", GRIDS)
    def test_kraus_set_is_the_pruned_stack_slice_bytewise(self, kind, mu, grid):
        # the stack is not pruned: every operator that the former 1e-14 norm
        # cut dropped is exactly zero, so keeping it changes no sum
        ps = self.GRIDS[grid]
        stack = _kraus_stack(kind, ps, mu)
        assert stack.flags.c_contiguous
        for ops, p in zip(stack, ps.tolist()):
            assert kraus_ops(ChannelSpec(kind, p, mu)).tobytes() == ops.tobytes()
            norms = np.linalg.norm(ops, axis=(1, 2))
            assert np.array_equal(norms < 1e-14, norms == 0.0)


class TestOperatorSums:
    """The stacked operator sum over a block's Kraus operators, one set per
    p, against an explicit loop over each one-p set's operators."""

    GRIDS = [P_GRID, [0.0, 1.0], [1.0, 0.37, 0.0]]  # with the endpoints' zero operators

    @pytest.mark.parametrize(
        "kind, mu", [(kind, 0.0) for kind in ALL_KINDS]
        + [(ChannelKind.CADC, 0.5), (ChannelKind.CADC, 1.0)],
        ids=lambda v: getattr(v, "value", f"mu={v}"),
    )
    @pytest.mark.parametrize("grid", range(len(GRIDS)))
    def test_matches_a_loop_over_the_operators(self, kind, mu, grid):
        ps = np.array(self.GRIDS[grid])
        states = [system_state(kind, x) for x in (0.0, 0.31, 1 / math.sqrt(2))]
        rhos = np.array([outer(psi, lay).mat for psi, lay in states])
        defects, images = _operator_sums(_kraus_stack(kind, ps, mu), rhos)
        assert images.shape == (len(rhos), len(ps)) + rhos.shape[1:]
        for i, p in enumerate(ps.tolist()):
            ops = kraus_ops(ChannelSpec(kind, p, mu))
            assert defects[i] == completeness_defect(ops)
            completeness = sum(k.conj().T @ k for k in ops)
            assert abs(defects[i] - np.abs(completeness - np.eye(ops.shape[-1])).max()) <= 1e-15
            for rho, image in zip(rhos, images[:, i]):
                expected = sum(k @ rho @ k.conj().T for k in ops)
                assert np.abs(image - expected).max() <= 1e-15

    def test_defects_alone_need_no_states(self):
        ps = [0.0, 0.5, 1.0]
        defects, images = _operator_sums(_kraus_stack(ChannelKind.ADC, np.array(ps), 0.0))
        assert images is None
        assert defects.tolist() == [completeness_defect(kraus_ops(ChannelSpec(ChannelKind.ADC, p)))
                                    for p in ps]

    def test_one_incomplete_set_rejects_the_block(self):
        # the block's images come with every set's defect, the incomplete one's too
        ops = _kraus_stack(ChannelKind.PFC, np.array([0.0, 0.5, 1.0]), 0.0)
        ops[1] *= 0.9
        psi, lay = system_state(ChannelKind.PFC, 0.8)
        alone, _ = _operator_sums(ops)
        defects, images = _operator_sums(ops, outer(psi, lay).mat[np.newaxis])
        assert defects.tolist() == alone.tolist()
        assert defects[1] == pytest.approx(0.19, abs=1e-15)
        assert max(defects[0], defects[2]) <= 1e-15
        traces = np.einsum("rpii->rp", images).real
        assert np.abs(traces - [1.0, 0.81, 1.0]).max() <= 1e-15


    SIZES = {"P=1": np.array([0.37]), "P=101": np.linspace(0.0, 1.0, 101),
             "P=1001": np.linspace(0.0, 1.0, 1001)}

    @pytest.mark.parametrize(
        "kind, mu", [(kind, 0.0) for kind in ALL_KINDS if kind is not ChannelKind.CADC]
        + [(ChannelKind.CADC, mu) for mu in (0.0, 0.5, 1.0)],
        ids=lambda v: getattr(v, "value", f"mu={v}"),
    )
    @pytest.mark.parametrize("size", SIZES)
    def test_images_match_the_three_operand_einsum_bytewise(self, kind, mu, size):
        # the images were one einsum over three operands, which numpy runs as
        # one loop over seven indices; the two stacked products must give its
        # bytes, on the real initial states and on complex states
        ops = _kraus_stack(kind, self.SIZES[size], mu)
        d = ops.shape[-1]
        rng = np.random.default_rng(d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        dense = g @ g.conj().T / np.trace(g @ g.conj().T).real
        real = np.array([np.outer(psi, psi) for psi, _ in
                         (initial_state(kind, x) for x in (0.0, 0.31, 1 / math.sqrt(2)))])
        for rhos in (real, np.concatenate([real, dense[np.newaxis]])):
            _, images = _operator_sums(ops, rhos)
            want = np.einsum("pkij,rjl,pkml->rpim", ops, rhos, ops.conj())
            assert (images.shape, images.dtype) == (want.shape, want.dtype)
            assert images.tobytes() == want.tobytes()


class TestRealChannels:
    """Every row of the Kraus table is real, the sigma_y kinds' too (as XZ),
    so every Kraus stack and the amplitudes it dilates a real state to are
    float64."""

    @pytest.mark.parametrize(
        "kind, mu", [(kind, 0.0) for kind in ALL_KINDS] + [(ChannelKind.CADC, 1.0)],
        ids=lambda v: getattr(v, "value", f"mu={v}"),
    )
    def test_dtype_follows_the_kraus_table(self, kind, mu):
        ps = np.linspace(0.0, 1.0, 11)
        assert _kraus_stack(kind, ps, mu).dtype == np.float64
        psi, layout = initial_state(kind, 0.37)
        assert psi.dtype == np.float64
        amplitudes, _ = dilate_block(kind, ps, mu, psi, layout)
        assert amplitudes.dtype == np.float64
        # a complex input keeps its dtype through a real channel
        assert dilate_block(kind, ps, mu, psi.astype(complex), layout)[0].dtype == np.complex128

    @pytest.mark.parametrize("kind, mu", DILATABLE + [(ChannelKind.CADC, 0.5)],
                             ids=lambda v: getattr(v, "value", f"mu={v}"))
    def test_every_engine_array_is_float64(self, kind, mu):
        # the Kraus stacks over a p grid and over brackets, and where the
        # channel dilates, the engine block's rows, pair stack and PPT minima
        ps = np.linspace(0.0, 1.0, 11)
        for grid in (ps, np.stack([ps, ps[::-1]])):
            assert _kraus_stack(kind, grid, mu).dtype == np.float64
        if mu not in (0.0, 1.0):
            return
        _, amplitudes, layout, ppt_min = _block_columns(kind, mu, np.array([0.0, 0.37, 1.0]), ps)
        pairs = [pair for pair in PAIRS.values() if set(pair) <= set(layout.labels)]
        for array in (amplitudes, _reduced(amplitudes, layout, *pairs), ppt_min):
            assert array.dtype == np.float64

    @pytest.mark.parametrize(
        "kind, mu", [(kind, 0.0) for kind in ALL_KINDS] + [(ChannelKind.CADC, 1.0)],
        ids=lambda v: getattr(v, "value", f"mu={v}"),
    )
    def test_one_state_per_p_matches_each_state_alone_bytewise(self, kind, mu):
        # one state per x over a shared p grid (P,), or over its own p (X, P),
        # gives x-major rows, each the state dilated alone at its p
        ps = np.linspace(0.0, 1.0, 7)
        states = [initial_state(kind, x) for x in np.linspace(0.0, 1.0, 7)]
        layout = states[0][1]
        psis = np.stack([psi for psi, _ in states])
        per_state, _ = dilate_block(kind, ps[:, np.newaxis], mu, psis, layout)
        grid, _ = dilate_block(kind, ps, mu, psis, layout)
        assert (per_state.shape[0], grid.shape[0]) == (7, 7 * 7)
        for i, (psi, _) in enumerate(states):
            alone, _ = dilate_block(kind, ps, mu, psi, layout)
            assert per_state[i].tobytes() == alone[i].tobytes()
            assert grid[7 * i:7 * (i + 1)].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("kind, mu, message", [
        (ChannelKind.ADC, 1.0, "mu is only meaningful for CADC, got mu=1.0 for ChannelKind.ADC"),
        (ChannelKind.PFC, 1.0, "mu is only meaningful for CADC, got mu=1.0 for ChannelKind.PFC"),
        (ChannelKind.BFC, 0.5, "mu is only meaningful for CADC, got mu=0.5 for ChannelKind.BFC"),
        (ChannelKind.CADC, 0.5, _NO_DILATION),
        (ChannelKind.CADC, 1.5, "mu must lie in [0, 1], got 1.5"),
    ], ids=["adc-mu1", "pfc-mu1", "bfc-mu0.5", "cadc-mu0.5", "cadc-mu1.5"])
    def test_mu_is_checked_by_the_channel_spec_rules(self, kind, mu, message):
        # no kind reads another channel's row: adc at mu = 1 is not CADC
        psi, layout = initial_state(kind, 0.5)
        with pytest.raises(ValueError) as info:
            dilate_block(kind, np.array([0.3]), mu, psi, layout)
        assert str(info.value) == message

    @pytest.mark.parametrize("ps, shown", [
        (np.array([0.3, 1.5]), "1.5"), (np.array([-0.1, 0.3]), "-0.1"),
        (np.array([0.3, np.nan]), "nan"), (np.array([[0.2, 0.3], [0.4, np.inf]]), "inf"),
        (np.array([0.3 + 0j]), "array([0.3+0.j])"), (np.array([True]), "array([ True])"),
    ], ids=["above-one", "negative", "nan", "inf-in-brackets", "complex", "bool"])
    def test_each_p_is_a_real_number_in_the_unit_interval(self, ps, shown):
        # ChannelSpec's message, before any NaN amplitude or RuntimeWarning
        psi, layout = initial_state(ChannelKind.ADC, 0.5)
        with pytest.raises(ValueError) as info:
            dilate_block(ChannelKind.ADC, ps, 0.0, psi, layout)
        assert str(info.value) == f"p must lie in [0, 1], got {shown}"

    def test_every_valid_p_and_mu_dilates(self):
        # the ends of [0, 1], integer and float32 grids, and CADC at mu 0 and 1
        for kind, mu in DILATABLE:
            psi, layout = initial_state(kind, 0.5)
            for ps in (np.array([0.0, 1.0]), np.array([0, 1]), np.array([0.25], dtype=np.float32)):
                amplitudes, _ = dilate_block(kind, ps, mu, psi, layout)
                assert np.isfinite(amplitudes).all()

    def test_a_state_of_the_wrong_dimension_is_rejected(self):
        psi, layout = initial_state(ChannelKind.ADC, 0.37)
        with pytest.raises(ValueError, match="does not end in layout dimension 4"):
            dilate_block(ChannelKind.ADC, np.array([0.5]), 0.0, psi[:2] / np.linalg.norm(psi[:2]),
                         layout)
        with pytest.raises(ValueError, match="not normalized"):
            dilate_block(ChannelKind.ADC, np.array([0.5, 0.6]), 0.0, np.stack([psi, 2 * psi]),
                         layout)


X_VALUES = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1 / math.sqrt(2)])
P_VALUES = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@settings(max_examples=25, deadline=None)
@given(x=X_VALUES, p=P_VALUES, mu=st.sampled_from([0.0, 1.0]))
def test_kraus_and_dilation_agree_property(kind, x, p, mu):
    spec = ChannelSpec(kind, p, mu if kind is ChannelKind.CADC else 0.0)
    psi, lay = system_state(kind, x)
    ops = kraus_ops(spec)
    assert completeness_defect(ops) <= 1e-12
    via_kraus = operator_sum(ops, outer(psi, lay).mat)
    state, layout = dilate_one(spec, psi, lay)
    via_dilation = partial_trace(outer(state, layout), set(lay.labels))
    assert np.abs(via_kraus - via_dilation.mat).max() <= 1e-12


@settings(max_examples=50, deadline=None)
@given(x=X_VALUES, p=P_VALUES, mu=st.floats(0.0, 1.0))
def test_cadc_mixture_property(x, p, mu):
    psi, lay = system_state(ChannelKind.CADC, x)
    rho = outer(psi, lay).mat

    def channel(m):
        return operator_sum(kraus_ops(ChannelSpec(ChannelKind.CADC, p, m)), rho)

    assert np.abs(channel(mu) - ((1 - mu) * channel(0.0) + mu * channel(1.0))).max() <= 1e-12
