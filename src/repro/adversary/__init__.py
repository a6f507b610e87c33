"""The adversary lab: active battery-depletion attacks and defenses.

The paper prices security in µJ against *passive* adversaries — this
package adds the active ones: malicious readers that flood, replay,
amplify and abandon handshakes to drain the tag's battery, plus the
defense layer (energy budgets, authenticated wake-up gating, restart
throttling) that makes the tag degrade gracefully instead of dying.
See :mod:`repro.adversary.engine` for the threat model.
"""

from .defense import (
    DEFENSE_SETS,
    DefenseConfig,
    EnergyBudget,
    WakeUpRadio,
    WAKE_TOKEN_BYTES,
    defense_config,
)
from .engine import (
    ADVERSARY_NAMES,
    SESSION_KINDS,
    AttackSessionResult,
    make_attack_policy,
    run_attack_session,
)
from .fieldcut import (
    FieldCutAttacker,
    FieldCutOutcome,
    run_fieldcut_attack,
)
from .errors import (
    AdversaryError,
    BudgetExhaustedError,
    DefenseConfigError,
)
from .soak import (
    ATTACK_OUTCOMES,
    AttackReport,
    AttackSpec,
    SUMMARY_NAME,
    run_attack_cohort,
    run_attack_soak,
    simulate_attack_cohort,
)

__all__ = [
    "ADVERSARY_NAMES",
    "SESSION_KINDS",
    "ATTACK_OUTCOMES",
    "AdversaryError",
    "AttackReport",
    "AttackSessionResult",
    "AttackSpec",
    "BudgetExhaustedError",
    "DEFENSE_SETS",
    "DefenseConfig",
    "DefenseConfigError",
    "EnergyBudget",
    "FieldCutAttacker",
    "FieldCutOutcome",
    "SUMMARY_NAME",
    "WAKE_TOKEN_BYTES",
    "WakeUpRadio",
    "defense_config",
    "make_attack_policy",
    "run_attack_cohort",
    "run_attack_session",
    "run_attack_soak",
    "run_fieldcut_attack",
    "simulate_attack_cohort",
]
