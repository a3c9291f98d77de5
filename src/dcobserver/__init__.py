"""Direct-coupling coherent observers for closed linear quantum systems."""

from .ccr import (
    PlantSpec,
    make_plant,
    make_theta,
    realizability_residual,
)
from .scenarios import (
    ArtifactBundle,
    ConfigError,
    ScenarioConfig,
    run_scenario,
)
from .simulation import (
    AverageSeries,
    ConvergenceReport,
    InvariantReport,
    PropagatorSeries,
    convergence_diagnostics,
    invariant_monitor,
    propagate,
    time_average,
    uniform_grid,
)
from .synthesis import (
    AugmentedSystem,
    ObserverConditionsReport,
    ObserverSpec,
    assemble_augmented,
    synthesize_observer,
    verify_observer_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactBundle",
    "AugmentedSystem",
    "AverageSeries",
    "ConfigError",
    "ConvergenceReport",
    "InvariantReport",
    "ObserverConditionsReport",
    "ObserverSpec",
    "PlantSpec",
    "PropagatorSeries",
    "ScenarioConfig",
    "assemble_augmented",
    "convergence_diagnostics",
    "invariant_monitor",
    "make_plant",
    "make_theta",
    "propagate",
    "realizability_residual",
    "run_scenario",
    "synthesize_observer",
    "time_average",
    "uniform_grid",
    "verify_observer_conditions",
]
