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
  (the files its record lists as ``artifacts`` re-hashed against the
  digests the worker reported) before it may touch the manifest;
* seeded **chaos faults** and the **obs shard scope** reach every
  task through one wrapper, :func:`repro.campaign.chaos.run_attempt`,
  so a task is just ``task(spec, directory, index) -> record``;
* each run **sweeps** ``*.tmp`` débris before its first attempt and
  after its last, then **merges** the shards' metric snapshots;
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

from ..obs import runtime as obs_runtime
from ..obs.metrics import atomic_write_bytes
from .chaos import ChaosConfig, run_attempt
from .errors import (
    DATA_INTEGRITY,
    TRANSIENT,
    CampaignError,
    classify_exception,
)
from .spec import derive_seed
from .store import file_digest

__all__ = ["RetryPolicy", "FailureEvent", "FailureLog", "Quarantine",
           "ShardSupervisor", "SupervisorOutcome",
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

#: Keys (and types) of a ``failures.jsonl`` event that readers rely on.
_EVENT_FIELDS = {"shard": int, "attempt": int, "kind": str,
                 "reason": str, "action": str}
#: Keys (and types) of a ``quarantine.json`` entry.
_QUARANTINE_FIELDS = {"kind": str, "reason": str, "attempts": int}


def _check_fields(value, fields: dict, where: str) -> None:
    """Raise :class:`CampaignError` unless ``value`` is a JSON object
    holding every key of ``fields`` with that exact type."""
    if not isinstance(value, dict):
        raise CampaignError(f"{where} must be a JSON object, "
                            f"got {type(value).__name__}")
    for key, kind in fields.items():
        if type(value.get(key)) is not kind:
            raise CampaignError(
                f"{where}: {key!r} must be {kind.__name__}")


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
    truncated line (a crash mid-append) by skipping it; a line that
    parses but is not an event raises :class:`CampaignError`.
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
        """Append one event on a line of its own.

        After a crash mid-append the file ends in a torn line with no
        newline; the event then starts on a fresh line, so the torn
        line stays the only one :meth:`events` skips.
        """
        os.makedirs(self.directory, exist_ok=True)
        line = (json.dumps(event.to_dict()) + "\n").encode("utf-8")
        with open(self.path, "a+b") as f:
            if f.seek(0, os.SEEK_END):
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    line = b"\n" + line
            f.write(line)
            f.flush()
            os.fsync(f.fileno())

    def events(self) -> list:
        """Every recorded event as a dict, oldest first."""
        if not self.exists:
            return []
        events = []
        with open(self.path, "r", encoding="utf-8") as f:
            for number, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue   # torn line from a crashed appender
                _check_fields(event, _EVENT_FIELDS,
                              f"{self.path} line {number}")
                events.append(event)
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
        """``{shard_index: {kind, reason, attempts}}`` currently held.

        A file of any other shape raises :class:`CampaignError` naming
        it.
        """
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as exc:
                raise CampaignError(f"{self.path}: {exc}") from None
        if not isinstance(raw, dict):
            raise CampaignError(f"{self.path} must hold a JSON object, "
                                f"got {type(raw).__name__}")
        shards = raw.get("shards", {})
        if not isinstance(shards, dict):
            raise CampaignError(f"{self.path}: 'shards' must be an object")
        entries = {}
        for key, entry in shards.items():
            if not key.isdecimal():
                raise CampaignError(
                    f"{self.path}: shard key {key!r} is not an index")
            _check_fields(entry, _QUARANTINE_FIELDS,
                          f"{self.path} shard {key}")
            entries[int(key)] = entry
        return entries

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

    def release(self, shard_index: int) -> None:
        """Drop one shard (one that has now completed), if held; the
        file goes when it holds none."""
        entries = self.entries()
        if entries.pop(shard_index, None) is None:
            return
        if not entries:
            os.remove(self.path)
            return
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
# the worker side
# ----------------------------------------------------------------------

def _shard_worker_main(conn, task, spec, directory, shard_index,
                       attempt, chaos) -> None:
    """Entry point of a supervised worker process.

    Sends exactly one ``("ok", record)`` or ``("error", info)`` on the
    pipe; a hard crash (chaos ``os._exit``, a segfault, ``kill -9``)
    sends nothing, which the supervisor reads as a transient failure.
    """
    try:
        record = run_attempt(task, spec, directory, shard_index, attempt,
                             chaos)
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
        The spec being run (any spec with a ``seed`` and a
        ``digest()``; it must pickle for process mode) and the
        directory its files and logs live in.
    task:
        ``task(spec, directory, index) -> record``, one attempt at one
        shard; module-level (picklable) for process mode.  The record
        lists its files as ``artifacts``, ``[relpath, sha256]`` pairs,
        which the supervisor re-hashes before accepting it.  It runs
        in the attempt's obs shard scope (``obs.runtime.current()``).
    workers:
        1 = inline (no processes, no watchdog); >1 = one spawned
        process per in-flight shard attempt, at most ``workers`` live.
    policy:
        :class:`RetryPolicy`; defaults to the standard budgets.
    chaos:
        Optional :class:`~repro.campaign.chaos.ChaosConfig` applied to
        every attempt by :func:`~repro.campaign.chaos.run_attempt`.
        Crash/hang faults require worker processes.
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
    """

    def __init__(self, spec, directory: str, task: Callable, *,
                 workers: int = 1,
                 policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosConfig] = None,
                 shard_timeout: Optional[float] = None,
                 on_success: Optional[Callable] = None,
                 on_event: Optional[Callable] = None):
        if workers < 1:
            raise ValueError("worker count must be positive")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if chaos is not None and chaos.needs_processes and workers == 1:
            raise ValueError(
                "chaos crash/hang faults need worker processes "
                "(workers > 1): inline faults would kill or stall the "
                "coordinator itself"
            )
        self.spec = spec
        self.spec_digest = spec.digest()
        self.directory = str(directory)
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.chaos = chaos
        self.shard_timeout = shard_timeout
        self.on_success = on_success or (lambda record, attempt: None)
        self.on_event = on_event
        self.task = task
        self.failure_log = FailureLog(self.directory)
        self.quarantine = Quarantine(self.directory)

    # ------------------------------------------------------------------

    def run(self, pending: list) -> SupervisorOutcome:
        """Drive every pending shard to completion or quarantine.

        Sweeps ``*.tmp`` débris before the first attempt and after the
        last, once every worker is reaped or killed (so each one is an
        orphan), then merges the shards' snapshots in shard order.
        """
        outcome = SupervisorOutcome()
        self._kind_counts = {}        # {shard: {kind: failures}}
        self._retries = []            # heap of (ready_at, shard, attempt)
        self._sweep_tmp()
        try:
            self._schedule(sorted(pending), outcome)
        finally:
            self._sweep_tmp()
        runtime = obs_runtime.current()
        if runtime is not None:
            obs_runtime.merge_shard_metrics(runtime, outcome.completed)
        return outcome

    def _sweep_tmp(self) -> None:
        """Delete the directory's top-level ``*.tmp`` débris."""
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass

    def _schedule(self, pending: list, outcome: SupervisorOutcome) -> None:
        """The one loop: due retries rejoin the queue, queued attempts
        launch while a worker is free (one worker: inline, to the end),
        then wait for a result, a death, a deadline or the next retry."""
        # spawn, not fork: fork can deadlock with NumPy/BLAS threads
        # and silently shares parent state; spawn starts clean.
        context = (None if self.workers == 1
                   else multiprocessing.get_context("spawn"))
        queue = deque((index, 0) for index in pending)
        active: list = []
        try:
            while queue or self._retries or active:
                now = time.monotonic()
                while self._retries and self._retries[0][0] <= now:
                    _, shard, attempt = heapq.heappop(self._retries)
                    queue.append((shard, attempt))
                while queue and len(active) < self.workers:
                    shard, attempt = queue.popleft()
                    if context is None:
                        self._attempt_inline(shard, attempt, outcome)
                    else:
                        active.append(self._launch(context, shard, attempt))
                if not active:
                    if self._retries:          # only future retries: sleep
                        time.sleep(max(0.0, self._retries[0][0]
                                       - time.monotonic()))
                    continue
                _wait_for_any(
                    [obj for slot in active
                     for obj in (slot.conn, slot.process.sentinel)],
                    timeout=self._wait_timeout(active),
                )
                active = [slot for slot in active
                          if not self._settle(slot, outcome)]
        except BaseException:
            for slot in active:
                self._kill(slot)
            raise

    def _attempt_inline(self, shard: int, attempt: int,
                        outcome: SupervisorOutcome) -> None:
        started = time.monotonic()
        try:
            record = run_attempt(self.task, self.spec, self.directory,
                                 shard, attempt, self.chaos)
        except Exception as exc:
            self._failed(shard, attempt,
                         classify_exception(type(exc).__name__),
                         f"{type(exc).__name__}: {exc}", outcome,
                         attempt_wall=time.monotonic() - started,
                         pid=os.getpid())
        else:
            self._complete(shard, attempt, record, outcome,
                           attempt_wall=time.monotonic() - started,
                           pid=os.getpid())

    def _launch(self, context, shard: int, attempt: int) -> _Active:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_shard_worker_main,
            args=(sender, self.task, self.spec, self.directory,
                  shard, attempt, self.chaos),
            daemon=True,
        )
        process.start()
        sender.close()                # child holds the only send end now
        started = time.monotonic()
        deadline = (None if self.shard_timeout is None
                    else started + self.shard_timeout)
        return _Active(shard, attempt, process, receiver, deadline,
                       started)

    def _wait_timeout(self, active: list) -> Optional[float]:
        bounds = [ready_at for ready_at, _, _ in self._retries[:1]]
        bounds += [slot.deadline for slot in active
                   if slot.deadline is not None]
        if not bounds:
            return None               # sentinel/conn activity wakes us
        return max(0.01, min(bounds) - time.monotonic())

    def _settle(self, slot: _Active, outcome: SupervisorOutcome) -> bool:
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
                               outcome, attempt_wall=wall, pid=pid)
            else:
                kind = classify_exception(payload.get("type", ""))
                reason = (f"{payload.get('type', 'Exception')}: "
                          f"{payload.get('message', '')}")
                self._failed(slot.shard, slot.attempt, kind, reason,
                             outcome, attempt_wall=wall, pid=pid)
            return True
        if not slot.process.is_alive():
            exitcode = slot.process.exitcode
            self._reap(slot)
            self._failed(slot.shard, slot.attempt, TRANSIENT,
                         f"worker exited with code {exitcode} without "
                         "delivering a result",
                         outcome, attempt_wall=wall, pid=pid)
            return True
        if slot.deadline is not None and time.monotonic() >= slot.deadline:
            self._kill(slot)
            # The worker is gone and took its telemetry with it; the
            # coordinator dumps its own black box with the failure
            # context so the hang leaves a post-mortem artifact (see
            # repro.obs.flightrec).
            obs_runtime.flight_dump(
                "watchdog", tag=f"watchdog-{slot.shard:05d}",
                shard=slot.shard, attempt=slot.attempt,
                timeout_s=self.shard_timeout)
            self._failed(slot.shard, slot.attempt, TRANSIENT,
                         f"watchdog: no result within "
                         f"{self.shard_timeout:.1f}s; worker killed",
                         outcome, attempt_wall=wall, pid=pid)
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
                  outcome: SupervisorOutcome,
                  attempt_wall: float = 0.0, pid: int = 0) -> None:
        reason = self._integrity_reason(record)
        if reason is not None:
            self._failed(shard, attempt, DATA_INTEGRITY, reason,
                         outcome, attempt_wall=attempt_wall, pid=pid)
            return
        self.on_success(record, attempt)
        # A re-run that completes a held index (enrollment and the
        # cohort soaks re-attempt them) releases it.
        self.quarantine.release(shard)
        outcome.completed.append(shard)

    def _integrity_reason(self, record: dict) -> Optional[str]:
        """Re-hash the record's ``artifacts`` against the worker's own
        digests."""
        for relpath, digest in record["artifacts"]:
            path = os.path.join(self.directory, relpath)
            if not os.path.exists(path):
                return (f"{relpath} vanished after the worker "
                        "reported success")
            if file_digest(path) != digest:
                return (f"{relpath} on disk does not match the "
                        "digest its writer computed")
        return None

    def _failed(self, shard: int, attempt: int, kind: str, reason: str,
                outcome: SupervisorOutcome,
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
            heapq.heappush(self._retries,
                           (time.monotonic() + delay, shard, attempt + 1))
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
