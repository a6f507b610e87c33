"""Deterministic chaos harness for the campaign's own infrastructure.

:mod:`repro.fault` injects faults into the *device under test*; this
module aims the same idea at the supervised pipelines (trace
acquisition, fleet enrollment, the cohort soaks).  A
:class:`ChaosConfig` rides along with each supervised attempt and,
keyed by ``(chaos seed, fault name, shard index, attempt)``, decides
whether that attempt crashes the worker, hangs it, raises, dawdles, or
corrupts the task's first artifact after a successful write.  Because
decisions hash the *attempt* number, a fault that fires on attempt 0
generally clears on attempt 1 — exactly the flaky-environment shape
the supervisor's retry policy exists for — while ``only_shards`` plus
a rate of 1.0 models a permanently broken shard that must end in
quarantine.

:func:`run_attempt` is the one place faults are injected: the
supervisor calls it for every attempt of every task, inline or in a
worker process, so no task sees an attempt number or a chaos config.
It also opens the attempt's obs shard scope, around the task alone:
the faults fire outside it, so an injected error leaves no flight
dump.
The harness never touches a task's content path: a chaos run that
completes is byte-for-byte identical to a fault-free one (the
recovery-matrix tests pin this), which is what makes the fault
tolerance provable rather than anecdotal.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..jsonspec import JsonSpec
from ..obs import runtime as obs_runtime
from .spec import derive_seed

__all__ = ["ChaosConfig", "ChaosInjectedError", "run_attempt",
           "CHAOS_CRASH_EXIT_CODE"]

#: Exit code of a chaos-crashed worker (recognizable in failures.jsonl).
CHAOS_CRASH_EXIT_CODE = 57

#: Fault precedence: at most one *execution* fault fires per attempt
#: (corruption is independent — it needs a completed write to corrupt).
_EXECUTION_FAULTS = ("crash", "hang", "error", "slow")

_RATE_FIELDS = {
    "crash": "crash_rate",
    "hang": "hang_rate",
    "error": "error_rate",
    "slow": "slow_rate",
    "corrupt": "corrupt_rate",
}


class ChaosInjectedError(RuntimeError):
    """The failure the ``error`` fault injects into a supervised task."""


@dataclass(frozen=True)
class ChaosConfig(JsonSpec):
    """Seeded fault rates for the supervised pipelines.

    Attributes
    ----------
    seed:
        Chaos decisions are a pure function of
        ``(seed, fault, shard, attempt)`` — two runs with the same
        config inject the same faults.
    crash_rate:
        Probability a worker dies hard (``os._exit``) after leaving a
        stale ``chaos-NNNNN.tmp`` file behind, like a writer killed
        mid-write.  Needs real worker processes.
    hang_rate:
        Probability the task sleeps ``hang_seconds`` — long enough
        that only the supervisor's watchdog ends it.  Needs real
        worker processes.
    error_rate:
        Probability the task raises :class:`ChaosInjectedError`
        (classified *deterministic* by the supervisor).
    slow_rate / slow_seconds:
        Probability/duration of an injected delay that stays under
        the watchdog — exercises scheduling, not recovery.
    corrupt_rate:
        Probability the task's first artifact is flipped *after* a
        successful write and digest computation — the supervisor's
        post-completion integrity check must catch it.
    only_shards:
        Restrict all faults to these shard indices (None = all); with
        a rate of 1.0 this models a permanently failing shard.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    slow_seconds: float = 0.05
    hang_seconds: float = 3600.0
    only_shards: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        for fault, field in _RATE_FIELDS.items():
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {rate}")
        if self.only_shards is not None:
            object.__setattr__(self, "only_shards",
                               tuple(sorted(set(self.only_shards))))

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    @property
    def needs_processes(self) -> bool:
        """Crash/hang faults cannot be injected into an inline worker
        (they would take the coordinator down with them)."""
        return self.crash_rate > 0.0 or self.hang_rate > 0.0

    def applies_to(self, shard_index: int) -> bool:
        return self.only_shards is None or shard_index in self.only_shards

    def _roll(self, fault: str, shard_index: int, attempt: int) -> bool:
        rate = getattr(self, _RATE_FIELDS[fault])
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        draw = derive_seed(self.seed, f"chaos/{fault}",
                           shard_index * 65537 + attempt)
        return draw / 2.0 ** 64 < rate

    def execution_fault(self, shard_index: int,
                        attempt: int) -> Optional[str]:
        """The one execution fault (if any) for this shard attempt."""
        if not self.applies_to(shard_index):
            return None
        for fault in _EXECUTION_FAULTS:
            if self._roll(fault, shard_index, attempt):
                return fault
        return None

    def corrupts(self, shard_index: int, attempt: int) -> bool:
        return (self.applies_to(shard_index)
                and self._roll("corrupt", shard_index, attempt))

    @classmethod
    def parse(cls, text: str, seed: int = 0,
              only_shards: Optional[tuple] = None) -> "ChaosConfig":
        """Parse a CLI fault spec like ``"crash=0.4,corrupt=0.25"``.

        Keys are the fault names (``crash``, ``hang``, ``error``,
        ``slow``, ``corrupt``) mapping to rates in [0, 1].
        """
        config = cls(seed=seed, only_shards=only_shards)
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"chaos spec {part!r} is not fault=rate")
            fault, _, value = part.partition("=")
            fault = fault.strip()
            if fault not in _RATE_FIELDS:
                raise ValueError(
                    f"unknown chaos fault {fault!r} "
                    f"(know {', '.join(sorted(_RATE_FIELDS))})"
                )
            config = replace(config, **{_RATE_FIELDS[fault]: float(value)})
        return config


# ----------------------------------------------------------------------
# the one injector
# ----------------------------------------------------------------------

def run_attempt(task, spec, directory: str, index: int, attempt: int,
                chaos: Optional[ChaosConfig]) -> dict:
    """``task(spec, directory, index)`` under the faults ``chaos`` draws.

    The task runs inside ``obs_runtime.shard_scope(index)``, so it
    reads the shard's runtime from ``obs_runtime.current()``.  The
    execution fault (if any) fires before the scope opens; corruption
    flips one byte of ``record["artifacts"][0]`` after it, once the
    task has computed its digests, so the record lies about the bytes
    on disk and only the supervisor's independent re-hash can notice.
    Runs in the worker (inline or subprocess); the supervisor passes
    the attempt number so retries draw fresh fault decisions.
    """
    fault = None if chaos is None else chaos.execution_fault(index, attempt)
    if fault == "crash":
        # Die the way a mid-write kill does: a stale .tmp left behind,
        # no result, nonzero exit — the supervisor must classify this
        # transient, and its .tmp sweep clears the débris when the
        # run ends.
        with open(os.path.join(directory, f"chaos-{index:05d}.tmp"),
                  "wb") as f:
            f.write(b"chaos: torn write\x00" * 4)
        os._exit(CHAOS_CRASH_EXIT_CODE)
    elif fault == "hang":
        time.sleep(chaos.hang_seconds)
    elif fault == "error":
        raise ChaosInjectedError(
            f"injected failure (shard {index}, attempt {attempt})")
    elif fault == "slow":
        time.sleep(chaos.slow_seconds)

    with obs_runtime.shard_scope(index):
        record = task(spec, directory, index)

    if chaos is not None and chaos.corrupts(index, attempt):
        path = os.path.join(directory, record["artifacts"][0][0])
        with open(path, "r+b") as f:
            byte = f.read(1) or b"\x00"
            f.seek(0)
            f.write(bytes([byte[0] ^ 0xFF]))
    return record
