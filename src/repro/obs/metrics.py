"""Process-local metric registry: counters, gauges, histograms.

The registry is the export surface of the reproduction: the campaign
engine, the protocol fleet, the architecture simulator and the channel
model increment metrics here, a traced run writes the snapshot as
``metrics.json``, and ``obs report`` / ``obs diff`` read it.  The
printed summaries (``campaign status``, ``protocol soak``, ``protocol
amortize``, ``power soak``) do not read it back: each renders from
its report object, whose properties compute every figure once, and
the recorders of :mod:`repro.obs.integration` export the same records
as metric families.

Metric names follow ``repro_<pkg>_<name>_<unit>`` (for example
``repro_campaign_traces_total`` or ``repro_arch_pointmult_cycles``);
the registry enforces the prefix and character set at creation time.

Two export formats:

* :meth:`MetricRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples, histograms as
  cumulative ``_bucket{le=...}`` plus ``_sum``/``_count``);
* :meth:`MetricRegistry.snapshot` — a JSON-serializable dict that
  round-trips through :meth:`merge_snapshot` (shard workers write
  their snapshot to disk; the coordinator folds them back in) and
  that :func:`diff_snapshots` turns into a regression table.

Everything is stdlib-only and deterministic: values are stored in
insertion-ordered dicts keyed by sorted label tuples, and snapshots
serialize with sorted keys, so two same-seed runs produce
byte-identical snapshot files (wall-clock metrics excepted — see
:func:`strip_wall_metrics`).
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry",
           "MetricError", "atomic_write_bytes", "diff_snapshots",
           "strip_wall_metrics", "DEFAULT_LATENCY_BUCKETS",
           "DEFAULT_CYCLE_BUCKETS", "SNAPSHOT_SCHEMA"]


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """fsync'd write-tmp-rename: the one atomic-write discipline for
    every artifact the repo persists.  The temp file keeps the ``.tmp``
    suffix, so the trace store's and the soaks' débris sweeps collect
    orphans from crashed writers."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise

SNAPSHOT_SCHEMA = 1

#: seconds — spans the ~1 us of a digit multiply up to multi-second shards.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0,
)

#: simulated cycles — one ladder step is ~500, a full K-163 PM ~90 k.
DEFAULT_CYCLE_BUCKETS: Tuple[float, ...] = (
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000,
)

_NAME_RE = re.compile(r"^repro_[a-z0-9]+(_[a-z0-9]+)+$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: name suffixes whose values depend on the wall clock, not the seed.
_WALL_SUFFIXES = ("_seconds", "_per_second")


class MetricError(ValueError):
    """A metric was declared or used inconsistently."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(
            f"metric name {name!r} violates the repro_<pkg>_<name>_<unit> "
            "convention (lowercase, underscore-separated, repro_ prefix)"
        )
    return name


def _label_key(labels: dict) -> tuple:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise MetricError(f"bad label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"") \
                .replace("\n", r"\n")


def _render_labels(key: tuple, extra: Optional[tuple] = None) -> str:
    pairs = list(key) + (list(extra) if extra else [])
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared base: a name, a help string, per-label-set values."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._values: Dict[tuple, object] = {}


class Counter(_Metric):
    """Monotonically increasing count (float increments allowed —
    energy in µJ is a counter too)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return float(self._values.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label set."""
        return float(sum(self._values.values()))


class Gauge(_Metric):
    """A value that can go anywhere (coverage fraction, peak statistic)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        return float(self._values.get(_label_key(labels), 0.0))


class _HistogramState:
    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, n_buckets: int):
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bucket_counts = [0] * n_buckets   # non-cumulative, no +Inf

    def observe(self, value: float, buckets: tuple) -> None:
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, le in enumerate(buckets):
            if value <= le:
                self.bucket_counts[i] += 1
                break


class Histogram(_Metric):
    """Fixed-bucket histogram (plus exact min/max/sum/count).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    overflow, so bucket counts always sum to ``count`` — the invariant
    the conformance tests pin.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Tuple[float, ...]] = None):
        super().__init__(name, help)
        buckets = tuple(buckets or DEFAULT_LATENCY_BUCKETS)
        if list(buckets) != sorted(set(buckets)):
            raise MetricError(f"histogram {name} buckets must be "
                              "strictly increasing")
        self.buckets = buckets

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = _HistogramState(len(self.buckets))
        state.observe(float(value), self.buckets)

    def state(self, **labels) -> Optional[_HistogramState]:
        return self._values.get(_label_key(labels))

    def mean(self, **labels) -> float:
        state = self.state(**labels)
        if state is None or state.count == 0:
            return 0.0
        return state.sum / state.count

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimated q-quantile of one series (upper-bound
        interpolation; error bounded by one bucket width — see
        :mod:`repro.obs.quantile`).  None when the series is empty."""
        from .quantile import estimate_quantile

        state = self.state(**labels)
        if state is None or state.count == 0:
            return None
        return estimate_quantile(
            self.buckets, state.bucket_counts, state.count,
            state.min, state.max, q)


class MetricRegistry:
    """Get-or-create home of every metric in one process (or shard)."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    # -- creation ------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"{name} already registered as {existing.kind}, "
                    f"requested as {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Tuple[float, ...]] = None) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, buckets=buckets)
        if buckets is not None and tuple(buckets) != metric.buckets:
            raise MetricError(f"histogram {name} re-registered with "
                              "different buckets")
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> list:
        return sorted(self._metrics)

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state of every metric (sorted, stable)."""
        metrics = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: dict = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["values"] = [
                    {
                        "labels": dict(key),
                        "count": state.count,
                        "sum": state.sum,
                        "min": state.min if state.count else None,
                        "max": state.max if state.count else None,
                        "bucket_counts": list(state.bucket_counts),
                    }
                    for key, state in sorted(metric._values.items())
                ]
            else:
                entry["values"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(metric._values.items())
                ]
            metrics[name] = entry
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. a shard worker's) into this registry.

        Counters and histograms add; gauges take the incoming value
        (last writer wins — merge order must itself be deterministic,
        which the coordinator guarantees by merging in shard order).
        """
        for name, entry in snapshot.get("metrics", {}).items():
            kind = entry.get("kind")
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""))
                for item in entry["values"]:
                    metric.inc(item["value"], **item["labels"])
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
                for item in entry["values"]:
                    metric.set(item["value"], **item["labels"])
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""),
                    buckets=tuple(entry["buckets"]),
                )
                for item in entry["values"]:
                    key = _label_key(item["labels"])
                    state = metric._values.get(key)
                    if state is None:
                        state = metric._values[key] = _HistogramState(
                            len(metric.buckets)
                        )
                    state.count += item["count"]
                    state.sum += item["sum"]
                    if item["count"]:
                        state.min = min(state.min, item["min"])
                        state.max = max(state.max, item["max"])
                    for i, n in enumerate(item["bucket_counts"]):
                        state.bucket_counts[i] += n
            else:
                raise MetricError(f"snapshot metric {name} has unknown "
                                  f"kind {kind!r}")

    def write_snapshot(self, path: str) -> None:
        """Atomically write the snapshot as canonical JSON."""
        payload = json.dumps(self.snapshot(), sort_keys=True,
                             indent=1).encode()
        atomic_write_bytes(path, payload)

    @staticmethod
    def load_snapshot(path: str) -> dict:
        with open(path, "r", encoding="utf-8") as f:
            snapshot = json.load(f)
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise MetricError(
                f"snapshot schema v{snapshot.get('schema')} is not "
                f"supported by this reader (v{SNAPSHOT_SCHEMA})"
            )
        return snapshot

    # -- Prometheus text exposition ------------------------------------

    def render_prometheus(self) -> str:
        """The text exposition format, one family per metric."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, state in sorted(metric._values.items()):
                    cumulative = 0
                    for le, n in zip(metric.buckets, state.bucket_counts):
                        cumulative += n
                        labels = _render_labels(
                            key, (("le", _format_value(le)),)
                        )
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {state.count}")
                    plain = _render_labels(key)
                    lines.append(f"{name}_sum{plain} "
                                 f"{_format_value(state.sum)}")
                    lines.append(f"{name}_count{plain} {state.count}")
            else:
                for key, value in sorted(metric._values.items()):
                    lines.append(f"{name}{_render_labels(key)} "
                                 f"{_format_value(float(value))}")
        return "\n".join(lines) + ("\n" if lines else "")


def strip_wall_metrics(snapshot: dict) -> dict:
    """The snapshot minus wall-clock-dependent families.

    Determinism ("same seed, same numbers") holds for everything the
    simulation computes — cycles, µJ, counts — but not for elapsed
    wall time; replay comparisons use this projection.
    """
    metrics = {
        name: entry
        for name, entry in snapshot.get("metrics", {}).items()
        if not name.endswith(_WALL_SUFFIXES)
    }
    return {"schema": snapshot.get("schema", SNAPSHOT_SCHEMA),
            "metrics": metrics}


def _scalar_series(entry: dict) -> list:
    """``[(labels_key, display_name_suffix, value)]`` for diffing."""
    series = []
    if entry["kind"] == "histogram":
        for item in entry["values"]:
            key = _label_key(item["labels"])
            series.append((key, ":count", float(item["count"])))
            if item["count"]:
                series.append((key, ":mean",
                               item["sum"] / item["count"]))
    else:
        for item in entry["values"]:
            series.append((_label_key(item["labels"]), "",
                           float(item["value"])))
    return series


def diff_snapshots(a: dict, b: dict,
                   patterns: Optional[list] = None) -> list:
    """Regression table between two snapshots.

    Returns ``[{"metric", "labels", "a", "b", "delta", "pct"}]`` sorted
    by metric name; ``pct`` is None when ``a`` is zero.  ``patterns``
    restricts to metrics matching any ``fnmatch`` glob.
    """
    import fnmatch

    def selected(name: str) -> bool:
        if not patterns:
            return True
        return any(fnmatch.fnmatch(name, p) for p in patterns)

    rows = []
    names = sorted(set(a.get("metrics", {})) | set(b.get("metrics", {})))
    for name in names:
        if not selected(name):
            continue
        series_a = dict(
            ((key, suffix), value) for key, suffix, value in
            _scalar_series(a["metrics"][name])
        ) if name in a.get("metrics", {}) else {}
        series_b = dict(
            ((key, suffix), value) for key, suffix, value in
            _scalar_series(b["metrics"][name])
        ) if name in b.get("metrics", {}) else {}
        for key, suffix in sorted(set(series_a) | set(series_b)):
            va = series_a.get((key, suffix))
            vb = series_b.get((key, suffix))
            delta = (vb or 0.0) - (va or 0.0)
            pct = None
            if va not in (None, 0.0) and vb is not None:
                pct = 100.0 * (vb - va) / va
            rows.append({
                "metric": name + suffix,
                "labels": dict(key),
                "a": va,
                "b": vb,
                "delta": delta,
                "pct": pct,
            })
    return rows
