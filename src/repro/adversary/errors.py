"""Typed failures of the adversary lab.

The campaign taxonomy discipline (:mod:`repro.campaign.errors`)
applied to active attacks: every way a tag *refuses* work under
attack is a typed, catchable error with session identity attached —
graceful degradation means the caller learns exactly which defense
fired, never a bare assert and never silence.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["AdversaryError", "BudgetExhaustedError",
           "DefenseConfigError"]


class AdversaryError(RuntimeError):
    """An adversary-lab failure with session identity attached."""

    def __init__(self, message: str, *,
                 session_index: Optional[int] = None):
        if session_index is not None:
            message = f"{message} [session {session_index}]"
        super().__init__(message)
        self.session_index = session_index


class BudgetExhaustedError(AdversaryError):
    """The tag's per-window energy budget is spent: protocol work is
    refused until the window rolls.

    This is the battery-depletion defense firing — the charge that
    would have exceeded the cap was *not* spent, so a flood drains at
    most ``cap_uj`` per window instead of running the battery down.
    """

    def __init__(self, message: str, *, window_index: int = 0,
                 spent_uj: float = 0.0, cap_uj: float = 0.0,
                 session_index: Optional[int] = None):
        super().__init__(message, session_index=session_index)
        self.window_index = window_index
        self.spent_uj = spent_uj
        self.cap_uj = cap_uj


class DefenseConfigError(AdversaryError, ValueError):
    """An invalid defense configuration (unknown set name, negative
    cap, zero window)."""
