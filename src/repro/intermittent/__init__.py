"""Intermittent-power robustness: checkpointed sessions, zero nonce reuse.

The missing failure mode of the paper's wirelessly powered tag: the
field drops mid-protocol.  This package makes every layer survive it —

* :mod:`~repro.intermittent.supply` — power-on windows whose ends
  raise :class:`~repro.intermittent.errors.PowerLossError` at an exact
  cycle;
* :mod:`~repro.intermittent.checkpoint` — an NVM-modeled two-phase
  atomic commit of ladder and session state, µJ-accounted, with the
  nonce committed *before first use*;
* :mod:`~repro.intermittent.engine` — the resume engine replaying one
  identification to a byte-identical outcome across N power cycles;
* :mod:`~repro.intermittent.chaos` — seeded and adversarially aimed
  power-cut schedules (mid-commit, between nonce draw and first
  frame).
"""

from .chaos import (
    ADVERSARIAL_EVENTS,
    PowerCutSchedule,
    adversarial_schedules,
    probe_timeline,
    run_with_schedule,
)
from .checkpoint import CheckpointStore, NVMModel, NonceVault
from .engine import (
    CYCLES_PER_LADDER_STEP,
    IntermittentResult,
    IntermittentSession,
    IntermittentSpec,
    count_nonce_reuse,
    run_intermittent_session,
)
from .errors import (
    CheckpointCorruptError,
    IntermittentError,
    PowerLossError,
    ResumeExhaustedError,
    SupplySpecError,
)
from .supply import PowerSupply, derive_supply_value

__all__ = [
    "ADVERSARIAL_EVENTS",
    "CYCLES_PER_LADDER_STEP",
    "CheckpointCorruptError",
    "CheckpointStore",
    "IntermittentError",
    "IntermittentResult",
    "IntermittentSession",
    "IntermittentSpec",
    "NVMModel",
    "NonceVault",
    "PowerCutSchedule",
    "PowerLossError",
    "PowerSupply",
    "ResumeExhaustedError",
    "SupplySpecError",
    "adversarial_schedules",
    "derive_supply_value",
    "probe_timeline",
    "count_nonce_reuse",
    "run_intermittent_session",
    "run_with_schedule",
]
