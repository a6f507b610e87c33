"""Campaign progress: traces/sec, ETA, per-shard wall-clock.

The acquisition engine narrates through a tiny callback interface so
the CLI, the benches and tests can each observe a campaign their own
way without the engine knowing about terminals or log files.  All
rates are computed from the *coordinator's* wall clock (work finished
per elapsed second), so they stay honest under any worker count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dataclass_field

__all__ = ["ShardEvent", "CampaignMetrics", "CampaignReporter",
           "NullReporter", "ConsoleReporter", "CollectingReporter"]


@dataclass(frozen=True)
class ShardEvent:
    """One completed shard, as seen by the coordinator."""

    index: int
    n_traces: int
    wall_seconds: float      # worker-side wall-clock of this shard
    done_shards: int
    total_shards: int
    done_traces: int
    total_traces: int
    elapsed_seconds: float   # coordinator wall-clock since start
    traces_per_second: float
    eta_seconds: float


@dataclass
class CampaignMetrics:
    """Aggregate acquisition metrics (what the engine returns)."""

    total_shards: int = 0
    total_traces: int = 0
    acquired_shards: int = 0
    acquired_traces: int = 0
    skipped_shards: int = 0      # already on disk (resume)
    elapsed_seconds: float = 0.0
    shard_walls: list = dataclass_field(default_factory=list)
    retried_attempts: int = 0    # failed attempts that were retried
    failure_events: int = 0      # every failure, retried or not
    quarantined_shards: list = dataclass_field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when the campaign finished without full coverage."""
        return bool(self.quarantined_shards)

    @property
    def traces_per_second(self) -> float:
        """Coordinator-side acquisition throughput."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.acquired_traces / self.elapsed_seconds

    def summary(self) -> str:
        """One-line human summary."""
        walls = ", ".join(f"{w:.2f}s" for w in self.shard_walls[:8])
        if len(self.shard_walls) > 8:
            walls += ", ..."
        return (
            f"{self.acquired_traces}/{self.total_traces} traces in "
            f"{self.acquired_shards} shard(s) "
            f"(+{self.skipped_shards} resumed) in "
            f"{self.elapsed_seconds:.2f}s = "
            f"{self.traces_per_second:.1f} traces/s"
            + (f"; per-shard wall [{walls}]" if self.shard_walls else "")
            + (f"; {self.retried_attempts} retried attempt(s)"
               if self.retried_attempts else "")
            + (f"; QUARANTINED shards {self.quarantined_shards}"
               if self.quarantined_shards else "")
        )


class CampaignReporter:
    """Observer interface; all hooks are optional no-ops."""

    def on_start(self, total_shards: int, total_traces: int,
                 pending_shards: int, workers: int) -> None:
        """Acquisition begins; ``pending_shards`` excludes resumed ones."""

    def on_shard(self, event: ShardEvent) -> None:
        """One shard finished and was checkpointed."""

    def on_failure(self, event) -> None:
        """One shard attempt failed (a
        :class:`~repro.campaign.supervisor.FailureEvent`): it was
        retried or the shard was quarantined."""

    def on_finish(self, metrics: CampaignMetrics) -> None:
        """Acquisition finished — clean, or degraded when
        ``metrics.quarantined_shards`` is non-empty."""


class NullReporter(CampaignReporter):
    """Silence."""


class CollectingReporter(CampaignReporter):
    """Keeps every event in memory (tests, programmatic consumers)."""

    def __init__(self):
        self.started: list = []
        self.events: list = []
        self.failures: list = []
        self.finished: list = []

    def on_start(self, total_shards, total_traces, pending_shards, workers):
        self.started.append(
            (total_shards, total_traces, pending_shards, workers)
        )

    def on_shard(self, event: ShardEvent) -> None:
        self.events.append(event)

    def on_failure(self, event) -> None:
        self.failures.append(event)

    def on_finish(self, metrics: CampaignMetrics) -> None:
        self.finished.append(metrics)


class ConsoleReporter(CampaignReporter):
    """Prints one line per shard: progress, rate, ETA."""

    def __init__(self, stream=None):
        self.stream = stream or sys.stderr

    def _emit(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def on_start(self, total_shards, total_traces, pending_shards, workers):
        resumed = total_shards - pending_shards
        note = f" ({resumed} shard(s) already on disk)" if resumed else ""
        self._emit(
            f"[campaign] acquiring {total_traces} traces / "
            f"{total_shards} shard(s) with {workers} worker(s){note}"
        )

    def on_shard(self, event: ShardEvent) -> None:
        self._emit(
            f"[campaign] shard {event.index:>4} done "
            f"({event.n_traces} traces, {event.wall_seconds:.2f}s) | "
            f"{event.done_shards}/{event.total_shards} shards, "
            f"{event.done_traces}/{event.total_traces} traces | "
            f"{event.traces_per_second:.1f} traces/s | "
            f"ETA {event.eta_seconds:.0f}s"
        )

    def on_failure(self, event) -> None:
        if event.action == "retry":
            outcome = f"retry in {event.delay_seconds:.2f}s"
        else:
            outcome = "QUARANTINED"
        self._emit(
            f"[campaign] shard {event.shard_index:>4} attempt "
            f"{event.attempt + 1} failed ({event.kind}: {event.reason}) "
            f"— {outcome}"
        )

    def on_finish(self, metrics: CampaignMetrics) -> None:
        self._emit("[campaign] " + metrics.summary())
