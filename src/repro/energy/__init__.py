"""System-level energy analysis.

Radio cost model, device (pacemaker) energy budgets and the secret-key
vs public-key computation/communication comparison of Section 4.
"""

from .budget import DeviceBudget, PACEMAKER_BUDGET
from .comparison import (
    ComputeEnergyTable,
    ProtocolEnergy,
    crossover_distance,
    protocol_energy,
)
from .radio import BAN_RADIO, RadioModel

__all__ = [
    "RadioModel",
    "BAN_RADIO",
    "DeviceBudget",
    "PACEMAKER_BUDGET",
    "ComputeEnergyTable",
    "ProtocolEnergy",
    "protocol_energy",
    "crossover_distance",
]
