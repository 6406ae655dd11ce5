"""Noisy-channel dynamics of complete complementarity relations.

One- and two-qubit pure states are evolved through seven noisy channels via
explicit system+environment unitary dilations; predictability, coherence,
entropy, correlation and entanglement measures of every partition of the
resulting global pure state are computed, and the complementarity and
entanglement-redistribution identities they obey are verified numerically.
"""

from .linalg import (
    DensityOperator,
    SubsystemLayout,
    hermitian_eigenvalues,
    outer,
    partial_trace,
    partial_transpose,
    qubits,
    state_vector,
)
from .channels import (
    ChannelKind,
    ChannelSpec,
    DilationResult,
    KrausSet,
    apply_kraus,
    dilate,
    kraus_set,
    validate_kraus,
)
from .measures import (
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
from .reports import (
    APPLICABLE_IDENTITIES,
    CCRReport,
    IdentityId,
    ccr_report,
    check_identity,
    initial_state,
    sudden_death_point,
)
from .cli import SweepConfig, emit, run_sweep, verify_command

__version__ = "0.1.0"

__all__ = [
    "APPLICABLE_IDENTITIES",
    "CCRReport",
    "ChannelKind",
    "ChannelSpec",
    "DensityOperator",
    "DilationResult",
    "IdentityId",
    "KrausSet",
    "SubsystemLayout",
    "SweepConfig",
    "apply_kraus",
    "ccr_report",
    "check_identity",
    "concurrence_x_state",
    "correlated_coherence_hs",
    "dilate",
    "emit",
    "hermitian_eigenvalues",
    "hs_coherence",
    "hs_predictability",
    "initial_state",
    "is_ppt",
    "kraus_set",
    "linear_entropy",
    "outer",
    "ppt_min_eigenvalue",
    "partial_trace",
    "partial_transpose",
    "qubits",
    "re_correlated_coherence",
    "run_sweep",
    "sector_decomposition",
    "state_vector",
    "sudden_death_point",
    "validate_kraus",
    "verify_command",
    "von_neumann_entropy",
]
