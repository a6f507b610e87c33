"""Typed failures of the identification service.

The campaign layer's taxonomy discipline (:mod:`repro.campaign.errors`)
applied to the server: overload and deadline outcomes are *typed*
errors a caller can catch and count, never hangs and never bare
asserts.  The admission layer's whole contract is that a client
learns it was shed immediately — "graceful shedding" means a typed
reject, not silence.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ServerError", "AdmissionRejectedError",
           "EnrollmentError",
           "SourceThrottledError", "ReplayQuarantinedError"]


class ServerError(RuntimeError):
    """A server-layer failure with session identity attached."""

    def __init__(self, message: str, *,
                 session_index: Optional[int] = None):
        if session_index is not None:
            message = f"{message} [session {session_index}]"
        super().__init__(message)
        self.session_index = session_index


class AdmissionRejectedError(ServerError):
    """The bounded admission queue was full: the arrival was shed.

    Raised synchronously at submission time — an overloaded server
    answers *immediately* with a reject instead of queueing the
    arrival into a deadline it can no longer meet.
    """


class EnrollmentError(ServerError):
    """The enrollment store refused an operation (spec mismatch,
    digest failure, mutation of an immutable sharded fleet)."""


class SourceThrottledError(ServerError):
    """A source exceeded its concurrent-session allowance.

    Per-source throttling is the server side of the adversary lab's
    battery-depletion story: one malicious reader identity cannot
    monopolize admission.  Raised synchronously at submission time,
    like :class:`AdmissionRejectedError` — typed shedding, never
    silence.
    """


class ReplayQuarantinedError(ServerError):
    """The source was quarantined for replaying commit material.

    A commitment ``R`` seen again from a *different* session is replay
    traffic (a fresh tag draws a fresh nonce every commit); with
    replay quarantine enabled the server refuses all further arrivals
    from that source at admission.
    """
