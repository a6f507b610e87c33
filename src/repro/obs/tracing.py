"""Hierarchical spans with deterministic ids and JSONL persistence.

A span records one unit of work — ``campaign.acquire`` > ``shard`` >
``trace`` > ``ladder.step`` — with three attribution axes:

* **wall time** (``start_s``/``end_s``, perf_counter-based) — real
  elapsed seconds, excluded from determinism guarantees;
* **simulated cycles** — the architecture model's clock, identical
  across replays;
* **µJ** — the calibrated energy model's charge for the span,
  identical across replays.

Span identity is *derived, not drawn*: ``span_id =
sha256(trace_id / parent_id / name / key)[:16]`` where ``key`` is an
explicit deterministic key (shard index, trace index, bit index) or
the parent's child counter.  A worker process can therefore emit
spans whose ids agree with the coordinator's without any IPC — both
sides derive the same ids from the same seed-rooted ``trace_id`` —
and two same-seed runs produce byte-identical span trees (see
:func:`repro.obs.report.canonical_span_tree`).

Records are appended to a JSONL file through a batch writer that
fsyncs every ``batch_size`` records and on close, the same
durability discipline as the campaign's ``failures.jsonl``.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import time
from contextlib import contextmanager
from typing import Optional

__all__ = ["Span", "SpanWriter", "Tracer", "derive_trace_id",
           "derive_span_id"]

#: the ambient span for parent derivation (shared by every tracer in
#: the process, so an inline shard's spans nest under the engine's).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def derive_trace_id(seed, config_digest: str = "") -> str:
    """The run's 16-hex-char trace id, derived from what defines it."""
    message = f"repro.obs/{seed}/{config_digest}".encode()
    return hashlib.sha256(message).hexdigest()[:16]


def derive_span_id(trace_id: str, parent_id: Optional[str], name: str,
                   key) -> str:
    """Deterministic span id; see the module docstring."""
    message = f"{trace_id}/{parent_id or ''}/{name}/{key}".encode()
    return hashlib.sha256(message).hexdigest()[:16]


class Span:
    """One open (then finished) span."""

    __slots__ = ("name", "span_id", "parent_id", "key", "start_s",
                 "end_s", "cycles", "uj", "attrs", "_children")

    def __init__(self, name: str, span_id: str,
                 parent_id: Optional[str], key):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.key = key
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.cycles: Optional[int] = None
        self.uj: Optional[float] = None
        self.attrs: dict = {}
        self._children = 0

    def set(self, cycles: Optional[int] = None,
            uj: Optional[float] = None, **attrs) -> "Span":
        """Attach attribution before the span closes."""
        if cycles is not None:
            self.cycles = int(cycles)
        if uj is not None:
            self.uj = float(uj)
        self.attrs.update(attrs)
        return self

    def next_child_key(self) -> int:
        key = self._children
        self._children += 1
        return key

    def to_record(self) -> dict:
        record = {
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "key": str(self.key),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": os.getpid(),
        }
        if self.cycles is not None:
            record["cycles"] = self.cycles
        if self.uj is not None:
            record["uj"] = self.uj
        if self.attrs:
            record["attrs"] = {k: self.attrs[k]
                               for k in sorted(self.attrs)}
        return record


class SpanWriter:
    """fsync-batched JSONL appender for span records."""

    def __init__(self, path: str, batch_size: int = 64):
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self.path = path
        self.batch_size = batch_size
        self._file = open(path, "w", encoding="utf-8")
        self._pending = 0

    def write(self, record: dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._pending += 1
        if self._pending >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        if self._file.closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._pending = 0

    def close(self) -> None:
        if not self._file.closed:
            self.flush()
            self._file.close()


class Tracer:
    """Creates spans, propagates parentage, writes finished records.

    ``detail`` gates span granularity: spans opened with a ``level``
    above it become no-ops (``ladder.step`` is level 2 — essential for
    energy attribution, too hot for huge production campaigns).
    """

    def __init__(self, trace_id: str, writer: SpanWriter,
                 detail: int = 2, on_record=None):
        self.trace_id = trace_id
        self.writer = writer
        self.detail = detail
        #: optional hook fed every finished record (the runtime points
        #: this at a FlightRecorder ring; see repro.obs.flightrec).
        self.on_record = on_record

    @contextmanager
    def span(self, name: str, key=None, level: int = 1,
             parent_id: Optional[str] = None, **attrs):
        """Open a span as a context manager; yields the Span (or None
        when ``level`` exceeds the tracer's detail)."""
        if level > self.detail:
            yield None
            return
        span = self._open(name, key, parent_id, attrs)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            _CURRENT.reset(token)
            self._finish(span)

    def event(self, name: str, key=None, level: int = 1,
              cycles: Optional[int] = None, uj: Optional[float] = None,
              parent_id: Optional[str] = None,
              **attrs) -> Optional[str]:
        """Emit a zero-duration leaf span (cycle/µJ attribution only)."""
        if level > self.detail:
            return None
        span = self._open(name, key, parent_id, attrs)
        span.set(cycles=cycles, uj=uj)
        self._finish(span)
        return span.span_id

    def _open(self, name: str, key, parent_id: Optional[str],
              attrs: dict) -> Span:
        parent = _CURRENT.get()
        if parent_id is None and parent is not None:
            parent_id = parent.span_id
        if key is None:
            key = parent.next_child_key() if parent is not None else 0
        span_id = derive_span_id(self.trace_id, parent_id, name, key)
        span = Span(name, span_id, parent_id, key)
        span.attrs.update(attrs)
        return span

    def _finish(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        record = span.to_record()
        self.writer.write(record)
        if self.on_record is not None:
            self.on_record(record)

    def flush(self) -> None:
        self.writer.flush()

    def close(self) -> None:
        self.writer.close()
