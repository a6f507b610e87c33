"""Streaming telemetry: ordered metric deltas folded in virtual time.

The post-hoc half of :mod:`repro.obs` merges finished shard snapshots;
this module is the *live* half.  Workers emit one *telemetry event*
per session — a tiny, seeded metric delta stamped with the session's
**virtual** start time and its source (the tag/cohort it belongs to)
— and a central :class:`StreamAggregator` folds the events into live
counters, per-source window sums and bucketed histograms with derived
p50/p95/p99.

Determinism is by construction, the same argument every soak summary
makes:

* an event is a pure function of ``(spec, session_index)`` — virtual
  timestamps come from the simulation clock, never the wall;
* the fold order is the total order ``(vt, source, session)``, which
  :func:`sort_events` imposes regardless of which worker produced
  which event, so float accumulation order — and therefore the live
  snapshot's bytes — is independent of worker count, scheduling and
  chaos crash history;
* every serialized float is rounded once, at event creation.

:func:`run_pipeline` is the one-call composition the soaks use: sort,
fold, derive per-window tail statistics, and evaluate an alert
rulebook (:mod:`repro.obs.alerts`) over the same ordered stream.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import _HistogramState, atomic_write_bytes
from .quantile import PERCENTILES, percentiles_from_counts

__all__ = ["TELEMETRY_NAME", "TELEMETRY_SCHEMA", "make_event",
           "spread_drain_events", "sort_events", "event_sort_key",
           "StreamAggregator", "run_pipeline",
           "render_stream_exposition", "write_telemetry"]

TELEMETRY_NAME = "telemetry.json"
TELEMETRY_SCHEMA = 1

#: µJ buckets for per-session energy histograms: spans the ~3 µJ of a
#: refused wake through the hundreds of µJ of a flooded undefended tag.
DEFAULT_UJ_BUCKETS: Tuple[float, ...] = (
    1.0, 3.0, 10.0, 30.0, 60.0, 100.0, 150.0, 300.0, 600.0, 1000.0,
)

#: The synthetic source derived fleet-wide series are attributed to.
FLEET_SOURCE = "_fleet"


def make_event(vt: float, source: str, session: int, **series) -> dict:
    """One telemetry event; every float rounded once, here."""
    return {
        "vt": round(float(vt), 9),
        "source": str(source),
        "session": int(session),
        "series": {name: round(float(value), 9)
                   for name, value in sorted(series.items())},
    }


def spread_drain_events(vt: float, source: str, session: int,
                        uj: float, elapsed_s: float,
                        window_s: float = 0.5,
                        series: str = "drain_uj") -> List[dict]:
    """Spread one session's µJ over the virtual windows it spans.

    A per-session event attributes the whole charge to the start
    window, which makes burst *arrival* look like burst *drain*; the
    battery does not see it that way.  This helper emits one event per
    overlapped window, each carrying the session's energy pro-rated by
    the time the session spent inside that window — the same
    charge-as-you-go accounting
    :class:`repro.adversary.defense.EnergyBudget` applies, so a
    window-sum alert over the resulting series names the same window
    the budget would have capped.  Per-window shares are rounded at
    event creation, so the series sum can differ from ``uj`` by
    rounding dust.
    """
    if uj <= 0:
        return []
    if elapsed_s <= 0:
        return [make_event(vt, source, session, **{series: uj})]
    end = vt + elapsed_s
    events = []
    window = int(vt / window_s + 1e-9)
    while True:
        window_start = window * window_s
        window_end = window_start + window_s
        lo = max(vt, window_start)
        hi = min(end, window_end)
        share = uj * (hi - lo) / elapsed_s
        if share > 0:
            events.append(make_event(lo, source, session,
                                     **{series: share}))
        if window_end >= end:
            return events
        window += 1


def event_sort_key(event: dict) -> tuple:
    return (event["vt"], event["source"], event["session"])


def sort_events(events) -> List[dict]:
    """The canonical fold order — total, worker-count invariant."""
    return sorted(events, key=event_sort_key)


class _SeriesState(_HistogramState):
    """A histogram series plus its per-source virtual-time windows."""

    __slots__ = ("window_sums", "peak_window", "peak_source")

    def __init__(self, n_buckets: int):
        super().__init__(n_buckets)
        #: open window accumulator per source: {source: [window, sum]}
        self.window_sums: Dict[str, list] = {}
        self.peak_window: Optional[Tuple[int, float]] = None
        self.peak_source: Optional[str] = None


class StreamAggregator:
    """Folds ordered telemetry events into live fleet statistics.

    Per series: count/sum/min/max, a fixed-bucket histogram (so tail
    quantiles derive exactly like :class:`~.metrics.Histogram`'s), and
    per-source window sums on the virtual clock (``window = floor(vt /
    window_s)`` — the same slicing as
    :class:`repro.adversary.defense.EnergyBudget`, so a drain alert's
    window index names the same window the budget would have capped).
    """

    def __init__(self, window_s: float = 0.5,
                 buckets: Sequence[float] = DEFAULT_UJ_BUCKETS):
        if window_s <= 0:
            raise ValueError("window width must be positive")
        self.window_s = float(window_s)
        self.buckets = tuple(buckets)
        self.events = 0
        self.sources: set = set()
        self._series: Dict[str, _SeriesState] = {}

    def window_of(self, vt: float) -> int:
        return int(vt / self.window_s + 1e-9)

    def fold(self, event: dict) -> None:
        self.events += 1
        self.sources.add(event["source"])
        window = self.window_of(event["vt"])
        for name, value in event["series"].items():
            state = self._series.get(name)
            if state is None:
                state = self._series[name] = _SeriesState(
                    len(self.buckets))
            state.observe(value, self.buckets)
            open_window = state.window_sums.get(event["source"])
            if open_window is None or open_window[0] != window:
                state.window_sums[event["source"]] = [window, value]
            else:
                open_window[1] += value
            current = state.window_sums[event["source"]][1]
            if state.peak_window is None \
                    or current > state.peak_window[1]:
                state.peak_window = (window, current)
                state.peak_source = event["source"]

    def quantile(self, series: str, q: float) -> Optional[float]:
        from .quantile import estimate_quantile

        state = self._series.get(series)
        if state is None or state.count == 0:
            return None
        return estimate_quantile(self.buckets, state.bucket_counts,
                                 state.count, state.min, state.max, q)

    def snapshot(self) -> dict:
        """The live snapshot: JSON-serializable, byte-stable."""
        series = {}
        for name in sorted(self._series):
            state = self._series[name]
            entry = {
                "count": state.count,
                "sum": round(state.sum, 6),
                "min": state.min,
                "max": state.max,
                "bucket_counts": list(state.bucket_counts),
            }
            entry.update(percentiles_from_counts(
                self.buckets, state.bucket_counts, state.count,
                state.min, state.max, PERCENTILES))
            if state.peak_window is not None:
                entry["peak_window"] = {
                    "window": state.peak_window[0],
                    "sum": round(state.peak_window[1], 6),
                    "source": state.peak_source,
                }
            series[name] = entry
        return {
            "schema": TELEMETRY_SCHEMA,
            "window_s": self.window_s,
            "buckets": list(self.buckets),
            "events": self.events,
            "sources": sorted(self.sources),
            "series": series,
        }


def run_pipeline(events, rules=(), *, window_s: float = 0.5,
                 buckets: Sequence[float] = DEFAULT_UJ_BUCKETS,
                 tail_series: str = "session_uj",
                 aggregator: Optional[StreamAggregator] = None,
                 ) -> Tuple[dict, list]:
    """Sort + fold + derive + alert, in one deterministic pass.

    Returns ``(live_snapshot, alert_records)``.  At every virtual
    window boundary the pipeline emits a derived fleet-wide sample
    ``<tail_series>_p99`` (the running deep-tail estimate) *before*
    folding the first event of the new window, so threshold rules on
    the tail see exactly the state a live dashboard would have shown
    when the window closed.

    Pass ``aggregator`` to fold into an existing
    :class:`StreamAggregator` (e.g. one already attached to a live
    ``/metrics`` exporter) instead of a fresh one; its ``window_s``
    then drives the boundary emission.
    """
    from .alerts import AlertEngine

    if aggregator is None:
        aggregator = StreamAggregator(window_s=window_s, buckets=buckets)
    window_s = aggregator.window_s
    engine = AlertEngine(rules, window_s=window_s)
    derived = f"{tail_series}_p99"
    last_window: Optional[int] = None
    for event in sort_events(events):
        window = aggregator.window_of(event["vt"])
        if last_window is not None and window > last_window:
            p99 = aggregator.quantile(tail_series, 0.99)
            if p99 is not None:
                boundary = make_event(window * window_s, FLEET_SOURCE,
                                      -1, **{derived: p99})
                aggregator.fold(boundary)
                engine.observe(boundary)
        last_window = window
        aggregator.fold(event)
        engine.observe(event)
    if last_window is not None:
        p99 = aggregator.quantile(tail_series, 0.99)
        if p99 is not None:
            boundary = make_event((last_window + 1) * window_s,
                                  FLEET_SOURCE, -1, **{derived: p99})
            aggregator.fold(boundary)
            engine.observe(boundary)
    return aggregator.snapshot(), engine.finalize()


def render_stream_exposition(snapshot: dict) -> str:
    """The live snapshot as Prometheus text (``repro_stream_*``).

    One gauge family per telemetry series — count, sum, min/max and
    the derived percentiles — so a mid-flight scrape of ``/metrics``
    carries the streaming aggregator's view next to the registry's
    families.
    """
    from .metrics import _escape_label_value

    lines: List[str] = []
    for name, entry in sorted(snapshot.get("series", {}).items()):
        family = f"repro_stream_{name}"
        lines.append(f"# HELP {family} live telemetry series {name}")
        lines.append(f"# TYPE {family} gauge")
        for stat in ("count", "sum", "min", "max", "p50", "p95", "p99"):
            value = entry.get(stat)
            if value is None:
                continue
            stat_label = _escape_label_value(stat)
            lines.append(f'{family}{{stat="{stat_label}"}} {value!r}')
        peak = entry.get("peak_window")
        if peak is not None:
            source = _escape_label_value(str(peak["source"]))
            lines.append(
                f'{family}{{stat="peak_window_sum",'
                f'source="{source}",'
                f'window="{peak["window"]}"}} {peak["sum"]!r}')
    return "\n".join(lines) + ("\n" if lines else "")


def write_telemetry(path: str, snapshot: dict) -> None:
    """Atomically persist a live snapshot as canonical JSON."""
    atomic_write_bytes(path, json.dumps(snapshot, indent=1,
                                        sort_keys=True).encode())
