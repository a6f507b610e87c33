"""Power and energy modelling (the circuit level's electrical view).

Leakage models (CMOS vs SABL/WDDL), the virtual oscilloscope that
produces noisy power traces, and the energy model calibrated to the
paper's published UMC 0.13 um operating point.
"""

from .energy import (
    EnergyModel,
    EnergyReport,
    calibrate_energy_model,
    energy_per_toggle_for_activity,
)
from .evaluation import (
    DesignEvaluation,
    MeasuredDesign,
    design_area,
    reference_config,
    reference_model,
)
from .models import (
    ChannelWeights,
    CmosLeakageModel,
    LeakageModel,
    SablLeakageModel,
    WddlLeakageModel,
)
from .simulator import PowerTraceSimulator
from .technology import (
    OperatingPoint,
    PAPER_ENERGY_PER_PM_JOULES,
    PAPER_OPERATING_POINT,
    PAPER_POWER_WATTS,
    PAPER_THROUGHPUT_PM_PER_S,
    TechnologyParams,
    UMC_130NM,
)

__all__ = [
    "EnergyModel",
    "EnergyReport",
    "calibrate_energy_model",
    "energy_per_toggle_for_activity",
    "DesignEvaluation",
    "MeasuredDesign",
    "design_area",
    "reference_config",
    "reference_model",
    "LeakageModel",
    "CmosLeakageModel",
    "SablLeakageModel",
    "WddlLeakageModel",
    "ChannelWeights",
    "PowerTraceSimulator",
    "TechnologyParams",
    "OperatingPoint",
    "UMC_130NM",
    "PAPER_OPERATING_POINT",
    "PAPER_POWER_WATTS",
    "PAPER_ENERGY_PER_PM_JOULES",
    "PAPER_THROUGHPUT_PM_PER_S",
]
