"""The engine's columns against the closed forms of closed_forms.py: the
one-qubit kinds' columns, amplitude damping's columns and every kind's
initial columns."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from closed_forms import PPT_TOL, TWO_QUBIT_KINDS, adc_columns, initial_columns, one_qubit_columns
from ccrsweep.channels import ChannelKind
from ccrsweep.reports import _block_columns

INV_SQRT2 = 1 / math.sqrt(2)
#: The acceptance grid (tests/test_acceptance.py).
X_GRID = (0.1, 0.2, 0.25, 0.5, INV_SQRT2)
P_GRID = [i / 100 for i in range(101)]

COLUMNS = ("P_hs_A", "C_hs_A", "S_l_A", "C_global", "Cc_AEA")
ONE_QUBIT_KINDS = ["pfc", "bpfc", "dc"]
#: Every kind with its mu values
BLOCKS = [(kind, mu) for kind in (*TWO_QUBIT_KINDS, *ONE_QUBIT_KINDS)
          for mu in ((0.0, 1.0) if kind == "cadc" else (0.0,))]


def assert_block_matches(kind: str, x: float, ps: np.ndarray) -> None:
    m, *_, cross_min = _block_columns(ChannelKind(kind), 0.0, x, ps)
    want = one_qubit_columns(kind, x, ps)
    for name in COLUMNS:
        assert np.abs(m[name] - want[name]).max(initial=0.0) <= 1e-12, (name, x)
    assert np.abs(cross_min[0] - want["cross_min"]).max(initial=0.0) <= 1e-12, x
    # the flag is compared wherever the minimum is clear of the threshold
    clear = np.abs(want["cross_min"] + PPT_TOL) > 1e-12
    assert (m["ppt_AEA"][clear] == want["ppt_AEA"][clear]).all(), x


@pytest.mark.parametrize("kind", ONE_QUBIT_KINDS)
def test_one_qubit_columns_match_the_closed_forms_on_the_grid(kind):
    for x in X_GRID:
        assert_block_matches(kind, x, np.array(P_GRID))


@pytest.mark.parametrize("kind", ONE_QUBIT_KINDS)
@given(
    x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2]),
    ps=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=12),
)
def test_one_qubit_columns_match_the_closed_forms_property(kind, x, ps):
    assert_block_matches(kind, x, np.array(ps))


def assert_adc_block_matches(x: float, ps: np.ndarray) -> None:
    m, *_ = _block_columns(ChannelKind.ADC, 0.0, x, ps)
    for name, want in adc_columns(x, ps).items():
        assert np.abs(m[name] - want).max(initial=0.0) <= 1e-12, (name, x)


def test_adc_columns_match_the_closed_forms_on_the_grid():
    for x in X_GRID:
        assert_adc_block_matches(x, np.array(P_GRID))


@given(
    x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2]),
    ps=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=12),
)
def test_adc_columns_match_the_closed_forms_property(x, ps):
    assert_adc_block_matches(x, np.array(ps))


def test_forms_obey_the_complementarity_budget():
    # P + C + S_l = 1/2 for qubit A, from the forms alone
    x, p = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21))
    for f in (*(one_qubit_columns(kind, x, p) for kind in ONE_QUBIT_KINDS), adc_columns(x, p)):
        assert np.abs(f["P_hs_A"] + f["C_hs_A"] + f["S_l_A"] - 0.5).max() <= 1e-15
    for kind, _ in BLOCKS:
        f = initial_columns(kind, x)
        budget = f["P_hs_A_initial"] + f["C_hs_A_initial"] + f["S_l_initial"]
        assert np.abs(budget - 0.5).max() <= 1e-15


def test_adc_forms_redistribute_the_linear_entropy():
    # S_l(A) = Cc_AB + Cc_AEA + Cc_AEB, from the forms alone
    x, p = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21))
    f = adc_columns(x, p)
    assert np.abs(f["S_l_A"] - (f["Cc_AB"] + f["Cc_AEA"] + f["Cc_AEB"])).max() <= 1e-15


def assert_initial_columns_match(kind: str, mu: float, x: float) -> None:
    # the engine evaluates the x it is given, bit flip's too (its pin is the callers')
    m, *_ = _block_columns(ChannelKind(kind), mu, x, np.array([0.0, 0.37, 1.0]))
    for name, value in initial_columns(kind, x).items():
        assert m[name].shape == (3,), name  # the x's column, repeated over its rows
        assert np.abs(m[name] - value).max() <= 1e-12, (name, x)


@pytest.mark.parametrize("kind, mu", BLOCKS, ids=lambda v: v if isinstance(v, str) else f"mu={v}")
def test_initial_columns_match_the_closed_forms_on_the_grid(kind, mu):
    for x in (0.0, *X_GRID, 0.37, 1.0):
        assert_initial_columns_match(kind, mu, x)


@pytest.mark.parametrize("kind, mu", BLOCKS, ids=lambda v: v if isinstance(v, str) else f"mu={v}")
@given(x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, INV_SQRT2]))
def test_initial_columns_match_the_closed_forms_property(kind, mu, x):
    assert_initial_columns_match(kind, mu, x)
