"""Bell tests with a small number of efficient detectors.

Simulates the project-then-test construction for multiqubit states: a few
parties keep efficient detectors and run a standard Bell test while the
rest only apply single projectors, whose detectors may be almost blind.
Provides critical detection efficiencies, visibility thresholds,
experiment-duration trade-offs, and lost-detector tolerances.
"""

from .analysis import (
    DickeLossSpec,
    TrialStats,
    bernoulli_pmf,
    damaged_state,
    dicke_loss_mixture,
    pascal_expected_trials,
    psi_plus_fraction,
    psi_plus_weight,
    trial_stats,
)
from .bell import (
    BellExpression,
    BellForm,
    BellTerm,
    OptimizeOptions,
    lhv_bound,
    optimize_settings,
    preset,
    quantum_value,
)
from .detmodel import (
    Convention,
    ConventionError,
    MeasurementSetting,
    X_PLUS,
    Z_ONE,
    Z_ZERO,
)
from .protocol import (
    ScenarioConfig,
    SolveResult,
    composite_parts,
    critical_eta,
    critical_eta_high,
    critical_visibility,
    projected_state,
)
from .qstate import (
    DensityMatrix,
    PureState,
    QubitCapacityError,
    StateSpec,
    ZeroProjectionError,
    cluster4,
    dicke,
    ghz,
    make_state,
    partial_pair,
)

__all__ = [
    "BellExpression",
    "BellForm",
    "BellTerm",
    "Convention",
    "ConventionError",
    "DensityMatrix",
    "DickeLossSpec",
    "MeasurementSetting",
    "OptimizeOptions",
    "PureState",
    "QubitCapacityError",
    "ScenarioConfig",
    "SolveResult",
    "StateSpec",
    "TrialStats",
    "ZeroProjectionError",
    "X_PLUS",
    "Z_ONE",
    "Z_ZERO",
    "bernoulli_pmf",
    "cluster4",
    "composite_parts",
    "critical_eta",
    "critical_eta_high",
    "critical_visibility",
    "damaged_state",
    "dicke",
    "dicke_loss_mixture",
    "ghz",
    "lhv_bound",
    "make_state",
    "optimize_settings",
    "partial_pair",
    "pascal_expected_trials",
    "preset",
    "projected_state",
    "psi_plus_fraction",
    "psi_plus_weight",
    "quantum_value",
    "trial_stats",
]

__version__ = "0.1.0"
