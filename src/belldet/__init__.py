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
    success_probability,
    trial_ratio,
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
    critical_eta_high,
    critical_visibility,
    default_projectors,
    projected_state,
    symmetric_critical_eta,
)
from .qstate import (
    DensityMatrix,
    PureState,
    QubitCapacityError,
    ZeroProjectionError,
)
from .states import (
    StateSpec,
    bell_phi_plus,
    bell_psi_plus,
    cluster4,
    dicke,
    ghz,
    make_state,
    partial_pair,
    w_state,
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
    "bell_phi_plus",
    "bell_psi_plus",
    "bernoulli_pmf",
    "cluster4",
    "composite_parts",
    "critical_eta_high",
    "critical_visibility",
    "damaged_state",
    "default_projectors",
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
    "success_probability",
    "symmetric_critical_eta",
    "trial_ratio",
    "trial_stats",
    "w_state",
]

__version__ = "0.1.0"
