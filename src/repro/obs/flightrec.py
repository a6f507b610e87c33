"""Crash flight recorder: the last N spans, dumped at the disaster.

A supervised worker that dies — an exception, a watchdog timeout,
power loss — takes its in-flight telemetry with it; the coordinator only
learns *that* it died, not what it was doing.  The flight recorder
closes that gap the way an aircraft's does: every finished span/event
record also lands in a bounded ring buffer
(:class:`FlightRecorder`), and on the way down the holder dumps the
ring via :func:`~repro.obs.metrics.atomic_write_bytes` to a
deterministically named ``flight-<tag>.json`` in the obs directory.

Dump sites (each states its reason in the payload):

* ``exception`` — :func:`repro.obs.runtime.shard_scope` when the
  shard body raises;
* ``watchdog`` — the :class:`~repro.campaign.supervisor.ShardSupervisor`
  after killing a hung worker (coordinator-side: the worker is gone,
  so the coordinator dumps its own recent view plus the failure
  context);
* ``power-loss`` — :func:`repro.intermittent.engine
  .run_intermittent_session` when a session exhausts its power-cycle
  budget and aborts.

Dumps are deterministic: records are the canonical span projection
(wall clock and pid stripped, exactly like
:func:`repro.obs.report.canonical_span_tree`), the ring's content at
a dump is a pure function of the seeded run up to that point, and
the file name is derived from the shard/session index — so two
same-seed runs crash-dump byte-identical black boxes, which the
replay tests pin.  ``campaign doctor`` and ``obs tail`` surface them.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import List, Optional, Tuple

from .metrics import atomic_write_bytes

__all__ = ["FLIGHT_SCHEMA", "FLIGHT_PREFIX", "DEFAULT_CAPACITY",
           "FlightRecorder", "strip_record", "flight_path",
           "list_flight_dumps", "load_flight_dumps"]

FLIGHT_SCHEMA = 1
FLIGHT_PREFIX = "flight-"
DEFAULT_CAPACITY = 64

#: Record fields that depend on the wall clock or the process, not the
#: seed — stripped so dumps are byte-comparable across replays.
_NONDETERMINISTIC_FIELDS = ("start_s", "end_s", "pid")


def strip_record(record: dict) -> dict:
    """The deterministic projection of one span record."""
    return {key: record[key] for key in sorted(record)
            if key not in _NONDETERMINISTIC_FIELDS}


def flight_path(obs_dir: str, tag: str) -> str:
    return os.path.join(obs_dir, f"{FLIGHT_PREFIX}{tag}.json")


class FlightRecorder:
    """A bounded ring of recent span/event records.

    Attach via :class:`repro.obs.tracing.Tracer`'s ``on_record`` hook
    (the runtime does this); the ring holds the last ``capacity``
    finished records in completion order.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, record: dict) -> None:
        self._ring.append(record)
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> List[dict]:
        """The ring's records, deterministically projected."""
        return [strip_record(record) for record in self._ring]

    def dump(self, path: str, reason: str,
             context: Optional[dict] = None) -> str:
        """Atomically write the black box; returns the path."""
        payload = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "context": dict(sorted((context or {}).items())),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "records": self.snapshot(),
        }
        atomic_write_bytes(path, json.dumps(payload, indent=1,
                                            sort_keys=True).encode())
        return path


def list_flight_dumps(obs_dir: str) -> List[str]:
    """Dump file names under ``obs_dir``, sorted (deterministic)."""
    if not os.path.isdir(obs_dir):
        return []
    return sorted(
        name for name in os.listdir(obs_dir)
        if name.startswith(FLIGHT_PREFIX) and name.endswith(".json")
    )


def load_flight_dumps(obs_dir: str) -> List[Tuple[str, dict]]:
    """``[(file_name, payload)]`` for every readable dump, in name
    order; unreadable (torn) dumps are skipped like torn span lines."""
    dumps = []
    for name in list_flight_dumps(obs_dir):
        try:
            with open(os.path.join(obs_dir, name), "r",
                      encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if payload.get("schema") == FLIGHT_SCHEMA:
            dumps.append((name, payload))
    return dumps
