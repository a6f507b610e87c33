"""Fault-tolerant shard execution: supervise, retry, quarantine, log.

The first engine fanned shards out with ``Pool.imap_unordered`` and
hoped: one worker exception aborted the whole campaign, a hung worker
stalled it forever, and nothing recorded *why*.  This module replaces
hope with supervision:

* each shard attempt runs in its **own spawned process** (a crashed or
  hung attempt can be reaped or killed without poisoning a shared
  pool; ``spawn`` also sidesteps the fork-vs-BLAS-threads deadlock);
* a **watchdog deadline** per attempt turns hangs into ordinary,
  retryable failures;
* failures are **classified** (:mod:`repro.campaign.errors`) and
  **retried** with capped exponential backoff and deterministic
  jitter; shards that keep failing are **quarantined** so the rest of
  the campaign completes degraded instead of dying;
* every worker result passes a **post-completion integrity check**
  (the files on disk re-hashed against the digests the worker
  reported) before it may touch the manifest;
* every failure is appended to ``failures.jsonl`` in the campaign
  directory — the campaign's black box recorder — and the current
  quarantine set lives in ``quarantine.json`` until
  ``campaign doctor --clear`` releases it.

With ``workers=1`` the supervisor runs attempts inline (no processes,
no watchdog) but keeps the identical retry/quarantine/logging policy,
so tests exercise the recovery matrix without spawning anything.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from multiprocessing.connection import wait as _wait_for_any
from typing import Callable, Optional

from ..obs.metrics import atomic_write_bytes
from .chaos import ChaosConfig, chaos_acquire_shard
from .errors import (
    DATA_INTEGRITY,
    TRANSIENT,
    classify_exception,
)
from .spec import CampaignSpec, derive_seed
from .store import file_digest

__all__ = ["RetryPolicy", "FailureEvent", "FailureLog", "Quarantine",
           "ShardSupervisor", "SupervisorOutcome", "run_shard_attempt",
           "FAILURES_NAME", "QUARANTINE_NAME"]

FAILURES_NAME = "failures.jsonl"
QUARANTINE_NAME = "quarantine.json"


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how patiently, a failing shard is retried.

    ``delay`` grows as ``base_delay * 2**attempt`` capped at
    ``max_delay``, with a multiplicative jitter of ±``jitter`` whose
    draw is *derived* from ``(seed, shard, attempt)`` — desynchronized
    retries without nondeterministic tests.
    """

    max_attempts: int = 4
    deterministic_attempts: int = 2
    base_delay: float = 0.25
    max_delay: float = 30.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1 or self.deterministic_attempts < 1:
            raise ValueError("attempt budgets must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def attempts_for(self, kind: str) -> int:
        """Budget of *failures of this kind* before quarantine.

        A shard is quarantined when its failures of any single kind
        exhaust that kind's budget, or its total attempts reach
        ``max_attempts`` — so one deterministic hiccup on a shard that
        already weathered a transient crash does not condemn it, but
        two deterministic failures (the task itself is broken) do.
        """
        from .errors import DETERMINISTIC

        if kind == DETERMINISTIC:
            return min(self.deterministic_attempts, self.max_attempts)
        return self.max_attempts

    def delay(self, attempt: int, shard_index: int = 0,
              seed: int = 0) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        raw = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if raw <= 0.0 or self.jitter <= 0.0:
            return max(raw, 0.0)
        draw = derive_seed(seed, "backoff", shard_index * 65537 + attempt)
        unit = draw / 2.0 ** 64                      # uniform [0, 1)
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))


# ----------------------------------------------------------------------
# failure log + quarantine (the on-disk state)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FailureEvent:
    """One failed shard attempt and what the supervisor did about it."""

    shard_index: int
    attempt: int             # 0-based attempt number that failed
    kind: str                # transient / deterministic / data_integrity
    reason: str
    action: str              # "retry" or "quarantine"
    delay_seconds: float = 0.0
    wall_time: float = 0.0
    spec_digest: str = ""
    attempt_wall_seconds: float = 0.0   # how long the attempt ran
    worker_pid: int = 0                 # 0 when unknown (e.g. old logs)

    def to_dict(self) -> dict:
        return {
            "shard": self.shard_index,
            "attempt": self.attempt,
            "kind": self.kind,
            "reason": self.reason,
            "action": self.action,
            "delay_seconds": round(self.delay_seconds, 4),
            "wall_time": self.wall_time,
            "spec_digest": self.spec_digest,
            "attempt_wall_seconds": round(self.attempt_wall_seconds, 4),
            "worker_pid": self.worker_pid,
        }


class FailureLog:
    """Append-only ``failures.jsonl`` in the campaign directory.

    One JSON object per line, flushed per event, so the history
    survives whatever killed the campaign.  Reading tolerates a
    truncated final line (a crash mid-append) by skipping it.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, FAILURES_NAME)

    @property
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def append(self, event: FailureEvent) -> None:
        os.makedirs(self.directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(event.to_dict()) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def events(self) -> list:
        """Every recorded event as a dict, oldest first."""
        if not self.exists:
            return []
        events = []
        with open(self.path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue   # torn final line from a crashed appender
        return events

    def tally(self) -> dict:
        """``{"by_kind": {...}, "retries": n, "quarantines": n}``."""
        by_kind: dict = {}
        retries = quarantines = 0
        for event in self.events():
            kind = event.get("kind", "?")
            by_kind[kind] = by_kind.get(kind, 0) + 1
            if event.get("action") == "retry":
                retries += 1
            elif event.get("action") == "quarantine":
                quarantines += 1
        return {"by_kind": by_kind, "retries": retries,
                "quarantines": quarantines}


class Quarantine:
    """The set of shards acquisition refuses to touch until cleared.

    Persisted as ``quarantine.json`` (atomic write) so a resumed
    campaign skips known-bad shards instead of burning its retry
    budget on them again; ``campaign doctor --clear`` deletes the file
    and the next acquire re-attempts them.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, QUARANTINE_NAME)

    def entries(self) -> dict:
        """``{shard_index: {kind, reason, attempts}}`` currently held."""
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        return {int(k): v for k, v in raw.get("shards", {}).items()}

    def indices(self) -> list:
        return sorted(self.entries())

    def add(self, shard_index: int, kind: str, reason: str,
            attempts: int) -> None:
        entries = self.entries()
        entries[shard_index] = {
            "kind": kind, "reason": reason, "attempts": attempts,
        }
        os.makedirs(self.directory, exist_ok=True)
        payload = json.dumps(
            {"shards": {str(k): entries[k] for k in sorted(entries)}},
            indent=1,
        ).encode()
        atomic_write_bytes(self.path, payload)

    def clear(self) -> list:
        """Release every quarantined shard; returns their indices."""
        released = self.indices()
        if os.path.exists(self.path):
            os.remove(self.path)
        return released


# ----------------------------------------------------------------------
# the shard task (worker side)
# ----------------------------------------------------------------------

def run_shard_attempt(spec_dict: dict, directory: str, shard_index: int,
                      attempt: int, chaos_dict: Optional[dict]) -> dict:
    """One shard attempt, with chaos faults applied when configured.

    Module-level (and dict-in, dict-out) so it crosses the ``spawn``
    pickle boundary; also called inline when ``workers=1``.
    """
    from .acquire import acquire_shard

    spec = CampaignSpec.from_dict(spec_dict)
    if chaos_dict is not None:
        return chaos_acquire_shard(spec, directory, shard_index, attempt,
                                   ChaosConfig.from_dict(chaos_dict))
    return acquire_shard(spec, directory, shard_index)


def _shard_worker_main(conn, task, spec_dict, directory, shard_index,
                       attempt, chaos_dict) -> None:
    """Entry point of a supervised worker process.

    Sends exactly one ``("ok", record)`` or ``("error", info)`` on the
    pipe; a hard crash (chaos ``os._exit``, a segfault, ``kill -9``)
    sends nothing, which the supervisor reads as a transient failure.
    """
    try:
        record = task(spec_dict, directory, shard_index, attempt,
                      chaos_dict)
        conn.send(("ok", record))
    except BaseException as exc:      # noqa: BLE001 — ferry it, typed
        try:
            conn.send(("error", {"type": type(exc).__name__,
                                 "message": str(exc)}))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# the supervisor (coordinator side)
# ----------------------------------------------------------------------

@dataclass
class SupervisorOutcome:
    """What one supervised run accomplished (and failed to)."""

    completed: list = dataclass_field(default_factory=list)
    quarantined: list = dataclass_field(default_factory=list)
    retried_attempts: int = 0
    failure_events: int = 0


class _Active:
    """One in-flight worker process and its result pipe."""

    __slots__ = ("shard", "attempt", "process", "conn", "deadline",
                 "started")

    def __init__(self, shard, attempt, process, conn, deadline, started):
        self.shard = shard
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.deadline = deadline
        self.started = started


class ShardSupervisor:
    """Runs shard attempts under the retry/quarantine policy.

    Parameters
    ----------
    spec, directory:
        The campaign being acquired.
    workers:
        1 = inline (no processes, no watchdog); >1 = one spawned
        process per in-flight shard attempt, at most ``workers`` live.
    policy:
        :class:`RetryPolicy`; defaults to the standard budgets.
    chaos:
        Optional :class:`~repro.campaign.chaos.ChaosConfig` forwarded
        to every attempt.  Crash/hang faults require ``workers > 1``.
    shard_timeout:
        Watchdog seconds per attempt (process mode only); None
        disables the watchdog.
    on_success:
        Called with ``(record_dict, attempt)`` after the integrity
        check passes — the engine absorbs/checkpoints here.  An
        exception from this callback is fatal (active workers are
        killed, the error propagates).
    on_event:
        Called with each :class:`FailureEvent` (reporters hook here).
    task:
        The attempt callable (tests inject flaky ones); must be
        picklable for process mode.
    use_processes:
        Force process (True) or inline (False) execution; default
        follows ``workers > 1``.  Lets the engine keep real worker
        processes even when only one shard remains pending.
    """

    def __init__(self, spec: CampaignSpec, directory: str, *,
                 workers: int = 1,
                 policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosConfig] = None,
                 shard_timeout: Optional[float] = None,
                 on_success: Optional[Callable] = None,
                 on_event: Optional[Callable] = None,
                 task: Callable = run_shard_attempt,
                 sleep: Callable = time.sleep,
                 use_processes: Optional[bool] = None):
        if workers < 1:
            raise ValueError("worker count must be positive")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if use_processes is None:
            use_processes = workers > 1
        if chaos is not None and chaos.needs_processes and not use_processes:
            raise ValueError(
                "chaos crash/hang faults need worker processes "
                "(workers > 1): inline faults would kill or stall the "
                "coordinator itself"
            )
        self.use_processes = use_processes
        self.spec = spec
        self.spec_dict = spec.to_dict()
        self.spec_digest = spec.digest()
        self.directory = str(directory)
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.chaos_dict = None if chaos is None else chaos.to_dict()
        self.shard_timeout = shard_timeout
        self.on_success = on_success or (lambda record, attempt: None)
        self.on_event = on_event
        self.task = task
        self.sleep = sleep
        self.failure_log = FailureLog(self.directory)
        self.quarantine = Quarantine(self.directory)

    # ------------------------------------------------------------------

    def run(self, pending: list) -> SupervisorOutcome:
        """Drive every pending shard to completion or quarantine."""
        outcome = SupervisorOutcome()
        self._kind_counts = {}        # {shard: {kind: failures}}
        if not pending:
            return outcome
        if self.use_processes:
            self._run_processes(sorted(pending), outcome)
        else:
            self._run_inline(sorted(pending), outcome)
        return outcome

    # ------------------------------------------------------------------
    # inline mode
    # ------------------------------------------------------------------

    def _run_inline(self, pending: list, outcome: SupervisorOutcome) -> None:
        queue = deque((index, 0, 0.0) for index in pending)
        while queue:
            now = time.monotonic()
            position = next(
                (k for k, item in enumerate(queue) if item[2] <= now), None
            )
            if position is None:      # every remaining item backs off
                earliest = min(item[2] for item in queue)
                self.sleep(max(0.0, earliest - now))
                continue
            queue.rotate(-position)
            shard, attempt, _ = queue.popleft()

            def schedule(delay, shard=shard, attempt=attempt):
                queue.append((shard, attempt + 1,
                              time.monotonic() + delay))

            started = time.monotonic()
            try:
                record = self.task(self.spec_dict, self.directory, shard,
                                   attempt, self.chaos_dict)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._failed(shard, attempt,
                             classify_exception(type(exc).__name__),
                             f"{type(exc).__name__}: {exc}",
                             outcome, schedule,
                             attempt_wall=time.monotonic() - started,
                             pid=os.getpid())
                continue
            self._complete(shard, attempt, record, outcome, schedule,
                           attempt_wall=time.monotonic() - started,
                           pid=os.getpid())

    # ------------------------------------------------------------------
    # process mode
    # ------------------------------------------------------------------

    def _run_processes(self, pending: list,
                       outcome: SupervisorOutcome) -> None:
        # spawn, not fork: fork can deadlock with NumPy/BLAS threads
        # and silently shares parent state; spawn starts clean.
        context = multiprocessing.get_context("spawn")
        queue = deque((index, 0) for index in pending)
        retries: list = []                     # heap of (ready_at, shard, attempt)
        active: list = []

        def schedule_for(shard, attempt):
            def schedule(delay):
                heapq.heappush(
                    retries,
                    (time.monotonic() + delay, shard, attempt + 1),
                )
            return schedule

        try:
            while queue or retries or active:
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    _, shard, attempt = heapq.heappop(retries)
                    queue.append((shard, attempt))
                while queue and len(active) < self.workers:
                    shard, attempt = queue.popleft()
                    active.append(self._launch(context, shard, attempt))
                if not active:                 # only future retries left
                    self.sleep(max(0.0, retries[0][0] - time.monotonic()))
                    continue
                _wait_for_any(
                    [obj for slot in active
                     for obj in (slot.conn, slot.process.sentinel)],
                    timeout=self._wait_timeout(retries, active),
                )
                active = [
                    slot for slot in active
                    if not self._settle(slot, outcome,
                                        schedule_for(slot.shard,
                                                     slot.attempt))
                ]
        except BaseException:
            for slot in active:
                self._kill(slot)
            raise

    def _launch(self, context, shard: int, attempt: int) -> _Active:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_shard_worker_main,
            args=(sender, self.task, self.spec_dict, self.directory,
                  shard, attempt, self.chaos_dict),
            daemon=True,
        )
        process.start()
        sender.close()                # child holds the only send end now
        started = time.monotonic()
        deadline = (None if self.shard_timeout is None
                    else started + self.shard_timeout)
        return _Active(shard, attempt, process, receiver, deadline,
                       started)

    def _wait_timeout(self, retries: list, active: list) -> Optional[float]:
        bounds = [ready_at for ready_at, _, _ in retries[:1]]
        bounds += [slot.deadline for slot in active
                   if slot.deadline is not None]
        if not bounds:
            return None               # sentinel/conn activity wakes us
        return max(0.01, min(bounds) - time.monotonic())

    def _settle(self, slot: _Active, outcome: SupervisorOutcome,
                schedule: Callable) -> bool:
        """Handle one slot; True when it no longer occupies a worker."""
        message = None
        pid = slot.process.pid or 0
        wall = time.monotonic() - slot.started
        if slot.conn.poll():
            try:
                message = slot.conn.recv()
            except (EOFError, OSError):
                message = None        # died mid-send: treat as a crash
        if message is not None:
            tag, payload = message
            self._reap(slot)
            if tag == "ok":
                self._complete(slot.shard, slot.attempt, payload,
                               outcome, schedule,
                               attempt_wall=wall, pid=pid)
            else:
                kind = classify_exception(payload.get("type", ""))
                reason = (f"{payload.get('type', 'Exception')}: "
                          f"{payload.get('message', '')}")
                self._failed(slot.shard, slot.attempt, kind, reason,
                             outcome, schedule,
                             attempt_wall=wall, pid=pid)
            return True
        if not slot.process.is_alive():
            exitcode = slot.process.exitcode
            self._reap(slot)
            self._failed(slot.shard, slot.attempt, TRANSIENT,
                         f"worker exited with code {exitcode} without "
                         "delivering a result",
                         outcome, schedule,
                         attempt_wall=wall, pid=pid)
            return True
        if slot.deadline is not None and time.monotonic() >= slot.deadline:
            self._kill(slot)
            # The worker is gone and took its telemetry with it; the
            # coordinator dumps its own black box with the failure
            # context so the hang leaves a post-mortem artifact (see
            # repro.obs.flightrec).
            from ..obs import runtime as _obs_runtime

            _obs_runtime.flight_dump(
                "watchdog", tag=f"watchdog-{slot.shard:05d}",
                shard=slot.shard, attempt=slot.attempt,
                timeout_s=self.shard_timeout)
            self._failed(slot.shard, slot.attempt, TRANSIENT,
                         f"watchdog: no result within "
                         f"{self.shard_timeout:.1f}s; worker killed",
                         outcome, schedule,
                         attempt_wall=wall, pid=pid)
            return True
        return False

    def _reap(self, slot: _Active) -> None:
        slot.process.join(timeout=5)
        try:
            slot.conn.close()
        except OSError:
            pass

    def _kill(self, slot: _Active) -> None:
        try:
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=2)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=5)
            else:
                slot.process.join(timeout=1)
        finally:
            try:
                slot.conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # shared completion / failure policy
    # ------------------------------------------------------------------

    def _complete(self, shard: int, attempt: int, record: dict,
                  outcome: SupervisorOutcome, schedule: Callable,
                  attempt_wall: float = 0.0, pid: int = 0) -> None:
        reason = self._integrity_reason(record)
        if reason is not None:
            self._failed(shard, attempt, DATA_INTEGRITY, reason,
                         outcome, schedule,
                         attempt_wall=attempt_wall, pid=pid)
            return
        self.on_success(record, attempt)
        outcome.completed.append(shard)

    def _integrity_reason(self, record: dict) -> Optional[str]:
        """Re-hash the shard files against the worker's own digests.

        A record may carry an explicit ``"artifacts"`` list of
        ``[relpath, sha256]`` pairs (how non-acquisition tasks such as
        the design-space engine describe their outputs); records
        without one use the acquisition layout's fixed file pair.
        """
        artifacts = record.get("artifacts")
        if artifacts is None:
            artifacts = [(record[file_key], record[digest_key])
                         for file_key, digest_key
                         in (("samples_file", "samples_sha256"),
                             ("aux_file", "aux_sha256"))]
        for relpath, digest in artifacts:
            path = os.path.join(self.directory, relpath)
            if not os.path.exists(path):
                return (f"{relpath} vanished after the worker "
                        "reported success")
            if file_digest(path) != digest:
                return (f"{relpath} on disk does not match the "
                        "digest its writer computed")
        return None

    def _failed(self, shard: int, attempt: int, kind: str, reason: str,
                outcome: SupervisorOutcome, schedule: Callable,
                attempt_wall: float = 0.0, pid: int = 0) -> None:
        attempts_used = attempt + 1
        counts = self._kind_counts.setdefault(shard, {})
        counts[kind] = counts.get(kind, 0) + 1
        if (attempts_used >= self.policy.max_attempts
                or counts[kind] >= self.policy.attempts_for(kind)):
            action, delay = "quarantine", 0.0
            self.quarantine.add(shard, kind=kind, reason=reason,
                                attempts=attempts_used)
            outcome.quarantined.append(shard)
        else:
            action = "retry"
            delay = self.policy.delay(attempt, shard, seed=self.spec.seed)
            outcome.retried_attempts += 1
            schedule(delay)
        event = FailureEvent(
            shard_index=shard, attempt=attempt, kind=kind, reason=reason,
            action=action, delay_seconds=delay, wall_time=time.time(),
            spec_digest=self.spec_digest,
            attempt_wall_seconds=attempt_wall, worker_pid=pid,
        )
        self.failure_log.append(event)
        outcome.failure_events += 1
        if self.on_event is not None:
            self.on_event(event)
