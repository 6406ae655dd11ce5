"""The package's public surface, and the names the benchmark harness uses.

A deletion that would break ``perfbench`` (its workloads call the names
below, and its tracer wraps ``DensityOperator.__post_init__`` at install)
fails here first.
"""

import warnings

import numpy as np

import ccrsweep
from ccrsweep import cli, linalg

PUBLIC = {
    "APPLICABLE_IDENTITIES", "CCRReport", "ChannelKind", "ChannelSpec", "DensityOperator",
    "DilationResult", "IdentityId", "KrausSet", "SubsystemLayout", "SweepConfig",
    "apply_kraus", "ccr_report", "concurrence_x_state", "correlated_coherence_hs", "dilate",
    "emit", "hs_coherence", "hs_predictability", "initial_state", "is_ppt", "kraus_set",
    "linear_entropy", "outer", "ppt_min_eigenvalue", "partial_trace", "qubits",
    "re_correlated_coherence", "sector_decomposition", "state_vector", "sudden_death_point",
    "sweep_table", "validate_kraus", "verify_command", "von_neumann_entropy",
}


def test_all_is_the_public_surface():
    assert set(ccrsweep.__all__) == PUBLIC
    assert len(ccrsweep.__all__) == len(PUBLIC)
    for name in ccrsweep.__all__:
        assert getattr(ccrsweep, name) is not None, name


def test_names_the_benchmark_uses_exist():
    assert callable(ccrsweep.ChannelSpec)
    assert callable(ccrsweep.ccr_report)
    assert callable(ccrsweep.SweepConfig)
    assert callable(cli.main)
    assert callable(linalg.DensityOperator.__post_init__)


def test_density_operator_reads_as_its_matrix():
    rho = linalg.outer([0.6, 0.8], linalg.qubits("A"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mat in (np.array(rho), np.asarray(rho), np.asarray(rho, dtype=complex),
                    np.array(rho, copy=True)):
            assert np.array_equal(mat, rho.mat)
    assert not np.shares_memory(np.array(rho, copy=True), rho.mat)
