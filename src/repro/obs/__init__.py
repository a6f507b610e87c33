"""repro.obs — tracing, metrics and energy-provenance telemetry.

The paper's thesis is that security is a *design dimension* to be
traded against area, speed, power and energy; this package is the
instrument that makes those trades measurable across the whole
reproduction.  Three pillars, one API:

* **tracing** (:mod:`.tracing`) — hierarchical spans
  (``campaign.acquire`` > ``shard`` > ``trace`` > ``ladder.step``)
  with wall-time, simulated-cycle and µJ attribution, deterministic
  span ids, fsync-batched JSONL persistence;
* **metrics** (:mod:`.metrics`) — a process-local registry of
  counters/gauges/fixed-bucket histograms with a Prometheus-text
  exporter and diffable JSON snapshots;
* **profiling** (:mod:`.profile`) — opt-in perf_counter timers on the
  hot paths, feeding the same histograms;
* **live telemetry** (:mod:`.stream`, :mod:`.alerts`,
  :mod:`.flightrec`) — ordered seeded metric deltas folded in virtual
  time, a deterministic alert-rule engine with hysteresis, and a
  bounded crash flight recorder dumped on power loss, exception or
  watchdog timeout.

Nothing here depends on anything outside the stdlib; the rest of the
package depends on it (guarded, so tracing off costs one global
read).  :mod:`.runtime` owns the on/off switch and worker
propagation, :mod:`.report` reads a finished run back, and
:mod:`.integration` exports the soak reports as metric families
(the printed summaries render from the reports themselves).
"""

from .alerts import (
    AlertEngine,
    AlertRule,
    default_rulebook,
)
from .flightrec import FlightRecorder
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricRegistry,
    diff_snapshots,
    strip_wall_metrics,
)
from .quantile import estimate_quantile
from .runtime import (
    ObsRuntime,
    configure,
    current,
    enabled,
    session,
    shard_scope,
    shutdown,
)
from .stream import (
    StreamAggregator,
    make_event,
    render_stream_exposition,
    run_pipeline,
    sort_events,
    spread_drain_events,
)
from .tracing import Span, SpanWriter, Tracer, derive_span_id, \
    derive_trace_id

__all__ = [
    "AlertEngine", "AlertRule", "default_rulebook",
    "FlightRecorder",
    "Counter", "Gauge", "Histogram", "MetricError", "MetricRegistry",
    "diff_snapshots", "strip_wall_metrics",
    "estimate_quantile",
    "ObsRuntime", "configure", "current", "enabled", "session",
    "shard_scope", "shutdown",
    "StreamAggregator", "make_event", "render_stream_exposition",
    "run_pipeline", "sort_events", "spread_drain_events",
    "Span", "SpanWriter", "Tracer", "derive_span_id", "derive_trace_id",
]
