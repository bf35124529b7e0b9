"""Feedback cooling of a trapped particle under continuous position monitoring.

Layers, bottom up:

* hilbert: truncated Fock algebra, states, tensor products
* gaussian: closed-form effective-bath theory and Wigner geometry
* models: Liouvillian builders (full bipartite, reduced with feedback)
* sme: stochastic master equation stepping, trajectories, steady states
* scenario / validation / cli: config files, self-checks, command line
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DimensionOverflow,
    InvalidFeedbackPhase,
    NonPositiveCovariance,
    NotUnique,
    SimulationError,
    StepTooLarge,
    TailTooHeavy,
    Unstable,
)
from .hilbert import DenseOperator, FockBasisSpec
from .models import (
    Superoperator,
    SystemParams,
    offresonant_full_liouvillian,
    reduced_feedback_liouvillian,
    reduced_measurement_liouvillian,
    resonant_full_liouvillian,
)
from .gaussian import (
    BathParams,
    StationaryMoments,
    WignerEllipse,
    bath_params,
    moment_fixed_point,
    optimal_gain,
    stability,
    stationary_moments,
    wigner_covariance,
)
from .sme import (
    EnsembleMoments,
    IntegratorConfig,
    TrajectoryRecord,
    ensemble_mean,
    integrate_lindblad,
    run_trajectory,
    steady_state,
)
from .scenario import (
    ScenarioConfig,
    default_config,
    format_config,
    load_config,
    parse_config,
)

__all__ = [
    "BathParams",
    "ConfigError",
    "DenseOperator",
    "DimensionMismatch",
    "DimensionOverflow",
    "EnsembleMoments",
    "FockBasisSpec",
    "IntegratorConfig",
    "InvalidFeedbackPhase",
    "NonPositiveCovariance",
    "NotUnique",
    "ScenarioConfig",
    "SimulationError",
    "StationaryMoments",
    "StepTooLarge",
    "Superoperator",
    "SystemParams",
    "TailTooHeavy",
    "TrajectoryRecord",
    "Unstable",
    "WignerEllipse",
    "bath_params",
    "default_config",
    "ensemble_mean",
    "format_config",
    "integrate_lindblad",
    "load_config",
    "moment_fixed_point",
    "parse_config",
    "offresonant_full_liouvillian",
    "optimal_gain",
    "reduced_feedback_liouvillian",
    "reduced_measurement_liouvillian",
    "resonant_full_liouvillian",
    "run_trajectory",
    "stability",
    "stationary_moments",
    "steady_state",
    "wigner_covariance",
]

__version__ = "0.1.0"
