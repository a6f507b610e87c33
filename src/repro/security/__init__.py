"""The security-pyramid model (Figure 1) and the white-box evaluation
harness (Section 7 / Figure 4)."""

from .evaluation import AttackFinding, EvaluationReport, WhiteBoxEvaluation
from .score import ATTACK_THREATS, SecurityScore, score_design
from .pyramid import (
    AbstractionLevel,
    BATTERY_DEPLETION_THREAT,
    Countermeasure,
    KEY_COMPROMISE_THREAT,
    POWER_INTERRUPTION_THREAT,
    Posture,
    SecurityPyramid,
    Threat,
    checkpoint_posture,
    default_pyramid,
    defense_posture,
    pyramid_for_config,
    session_posture,
)

__all__ = [
    "AbstractionLevel",
    "Threat",
    "Countermeasure",
    "SecurityPyramid",
    "default_pyramid",
    "pyramid_for_config",
    "Posture",
    "BATTERY_DEPLETION_THREAT",
    "POWER_INTERRUPTION_THREAT",
    "KEY_COMPROMISE_THREAT",
    "defense_posture",
    "checkpoint_posture",
    "session_posture",
    "AttackFinding",
    "EvaluationReport",
    "WhiteBoxEvaluation",
    "ATTACK_THREATS",
    "SecurityScore",
    "score_design",
]
