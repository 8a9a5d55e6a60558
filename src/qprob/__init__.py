"""Quantum probabilities for multimode systems.

Projective and operationally uncertain measurements, composite-event
(prospect) probabilities with their interference factors, the distribution
layer behind the quarter law, and a stochastic two-mode condensate model of
the time-resolved interference factor.
"""

from .becsim import (
    BecParams,
    EnsembleResult,
    Regime,
    StepRejected,
    Trajectory,
    critical_amplitude,
    ensemble_interference,
    integrate_deterministic,
)
from .events import (
    DensityOperator,
    Observable,
    event_probability,
    union_probability,
)
from .linalg import (
    DEFAULT_TOL,
    NoConvergenceError,
    NotHermitianError,
    OutcomeIndexError,
    SpectralDecomposition,
    hermitian_eigen,
    kron,
    outer,
    trace,
)
from .prospects import (
    CompositeState,
    Prospect,
    ProspectResult,
    bell_like_state,
    composite_in_eigenbasis,
    dephase_modes,
    max_entangled_state,
    partial_trace,
    product_state,
    prospect_operator,
    prospect_probabilities,
    prospect_state,
    standard_union_probability,
)
from .quarterlaw import (
    BetaPairDistribution,
    QSplit,
    pdf_normalization,
    q_split_closed,
    q_split_numeric,
    zero_mean_residual,
)
from .uncertain import (
    ModeWeights,
    UncertainUnion,
    proposition_operator,
    uncertain_probability,
    uncertain_state,
)

__version__ = "0.1.0"

__all__ = [
    "BecParams",
    "BetaPairDistribution",
    "CompositeState",
    "DEFAULT_TOL",
    "DensityOperator",
    "EnsembleResult",
    "ModeWeights",
    "NoConvergenceError",
    "NotHermitianError",
    "Observable",
    "OutcomeIndexError",
    "Prospect",
    "ProspectResult",
    "QSplit",
    "Regime",
    "SpectralDecomposition",
    "StepRejected",
    "Trajectory",
    "UncertainUnion",
    "bell_like_state",
    "composite_in_eigenbasis",
    "critical_amplitude",
    "dephase_modes",
    "ensemble_interference",
    "event_probability",
    "hermitian_eigen",
    "integrate_deterministic",
    "kron",
    "max_entangled_state",
    "outer",
    "partial_trace",
    "pdf_normalization",
    "product_state",
    "prospect_operator",
    "prospect_probabilities",
    "prospect_state",
    "proposition_operator",
    "q_split_closed",
    "q_split_numeric",
    "standard_union_probability",
    "trace",
    "uncertain_probability",
    "uncertain_state",
    "union_probability",
    "zero_mean_residual",
]
