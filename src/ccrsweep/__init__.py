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
    outer,
    partial_trace,
    qubits,
    state_vector,
)
from .channels import ChannelKind, ChannelSpec
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
    initial_state,
    sudden_death_point,
)
from .cli import SweepConfig, emit, sweep_table, verify_command

__version__ = "0.1.0"

__all__ = [
    "APPLICABLE_IDENTITIES",
    "CCRReport",
    "ChannelKind",
    "ChannelSpec",
    "DensityOperator",
    "IdentityId",
    "SubsystemLayout",
    "SweepConfig",
    "ccr_report",
    "concurrence_x_state",
    "correlated_coherence_hs",
    "emit",
    "hs_coherence",
    "hs_predictability",
    "initial_state",
    "is_ppt",
    "linear_entropy",
    "outer",
    "ppt_min_eigenvalue",
    "partial_trace",
    "qubits",
    "re_correlated_coherence",
    "sector_decomposition",
    "state_vector",
    "sudden_death_point",
    "sweep_table",
    "verify_command",
    "von_neumann_entropy",
]
