"""Design-space exploration with security as a first-class axis.

The paper's thesis operationalized: enumerate digit size x
countermeasure set x Vdd x frequency, measure each cell once
(cycle-level simulation, digest-keyed cache, supervised parallel
workers), price every operating point arithmetically, score security
from the pyramid and optional white-box findings, and compute the
multi-objective Pareto front under the paper's constraints.  A bare
:class:`DesignSpaceSpec` reproduces the published d=4 / 1.0 V /
847.5 kHz optimum as a constrained Pareto query.
"""

from .engine import (
    ExplorationEngine,
    ExplorationResult,
    PARETO_NAME,
    POINTS_NAME,
    SPACE_NAME,
    analyze_space,
)
from .errors import (
    DseError,
    MissingMeasurementError,
    SpaceValidationError,
)
from .evaluate import (
    MEASUREMENTS_DIRNAME,
    load_measurement,
    measurement_relpath,
    run_measurement_attempt,
)
from .pareto import OBJECTIVES, constraint_violations, dominates, pareto_front
from .space import (
    COUNTERMEASURE_SETS,
    DSE_SCHEMA_VERSION,
    DesignSpaceSpec,
    MeasurementJob,
)

__all__ = [
    "COUNTERMEASURE_SETS",
    "DSE_SCHEMA_VERSION",
    "DesignSpaceSpec",
    "DseError",
    "ExplorationEngine",
    "ExplorationResult",
    "MEASUREMENTS_DIRNAME",
    "MeasurementJob",
    "MissingMeasurementError",
    "OBJECTIVES",
    "PARETO_NAME",
    "POINTS_NAME",
    "SPACE_NAME",
    "SpaceValidationError",
    "analyze_space",
    "constraint_violations",
    "dominates",
    "load_measurement",
    "measurement_relpath",
    "pareto_front",
    "run_measurement_attempt",
]
