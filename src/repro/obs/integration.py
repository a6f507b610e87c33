"""Bridges from domain objects into the metric registry.

The CLI's summary views used to aggregate on their own — ``campaign
status`` summed shard walls one way, the acquire reporter another,
``protocol soak`` had a third set of loops — which is exactly how
numbers drift apart.  These recorders are now the *only* aggregation
path: they fold a :class:`~repro.campaign.store.TraceStore` or a
:class:`~repro.protocols.fleet.FleetReport` into a
:class:`~repro.obs.metrics.MetricRegistry`, and every rendered number
is read back out of the snapshot.

Imports of campaign/protocol types stay inside the functions so that
:mod:`repro.obs` itself remains import-light (instrumented modules
import it at module scope).
"""

from __future__ import annotations

from .metrics import MetricRegistry

__all__ = ["record_store", "record_fleet_report", "record_intermittent_result",
           "record_amortized_report", "amortized_point_stats",
           "fleet_point_stats", "snapshot_value", "snapshot_histogram"]


def snapshot_value(snapshot: dict, name: str, **labels) -> float:
    """A counter/gauge value out of a snapshot (0.0 when absent)."""
    entry = snapshot.get("metrics", {}).get(name)
    if entry is None:
        return 0.0
    wanted = {k: str(v) for k, v in labels.items()}
    for item in entry["values"]:
        if item["labels"] == wanted:
            return float(item["value"])
    return 0.0


def snapshot_histogram(snapshot: dict, name: str, **labels) -> dict:
    """``{count, sum, min, max}`` of one histogram series (zeros when
    absent)."""
    entry = snapshot.get("metrics", {}).get(name)
    empty = {"count": 0, "sum": 0.0, "min": None, "max": None}
    if entry is None or entry.get("kind") != "histogram":
        return empty
    wanted = {k: str(v) for k, v in labels.items()}
    for item in entry["values"]:
        if item["labels"] == wanted:
            return {"count": item["count"], "sum": item["sum"],
                    "min": item["min"], "max": item["max"]}
    return empty


# ----------------------------------------------------------------------
# campaign store -> registry (the `campaign status` aggregation)
# ----------------------------------------------------------------------

def record_store(registry: MetricRegistry, store,
                 failure_log=None, quarantine=None) -> MetricRegistry:
    """Fold a loaded TraceStore (plus failure state) into ``registry``.

    Gauges describe the store as it stands on disk; the wall-seconds
    histogram carries per-shard acquisition walls (sum/min/max feed
    the status line's throughput figures).
    """
    spec = store.spec
    registry.gauge("repro_campaign_store_traces",
                   "traces on disk").set(store.n_traces_on_disk)
    registry.gauge("repro_campaign_store_traces_planned",
                   "traces the spec plans").set(spec.n_traces)
    registry.gauge("repro_campaign_store_shards",
                   "completed shards on disk").set(len(store.shard_records))
    registry.gauge("repro_campaign_store_shards_planned",
                   "shards the spec plans").set(spec.n_shards)
    walls = registry.histogram(
        "repro_campaign_store_wall_seconds",
        "per-shard acquisition wall clock",
        buckets=(0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0),
    )
    for record in store.shard_records:
        walls.observe(record.wall_seconds)
    total_wall = sum(r.wall_seconds for r in store.shard_records)
    rate = store.n_traces_on_disk / total_wall if total_wall > 0 else 0.0
    registry.gauge("repro_campaign_store_rate_traces_per_second",
                   "traces per worker-wall second").set(rate)
    if failure_log is not None and failure_log.exists:
        failures = registry.counter(
            "repro_campaign_store_failures_total",
            "recorded shard-attempt failures by kind",
        )
        actions = registry.counter(
            "repro_campaign_store_failure_actions_total",
            "recorded failure outcomes (retry/quarantine)",
        )
        for event in failure_log.events():
            failures.inc(kind=event.get("kind", "?"))
            actions.inc(action=event.get("action", "?"))
    if quarantine is not None:
        registry.gauge(
            "repro_campaign_store_quarantined",
            "shards currently quarantined",
        ).set(len(quarantine.entries()))
    return registry


# ----------------------------------------------------------------------
# fleet report -> registry (the `protocol soak` aggregation)
# ----------------------------------------------------------------------

def _loss_label(frame_loss: float) -> str:
    return f"{frame_loss:g}"


def record_fleet_report(registry: MetricRegistry,
                        report) -> MetricRegistry:
    """Fold every sweep point's session records into ``registry``."""
    sessions = registry.counter("repro_fleet_sessions_total",
                                "sessions by sweep point and outcome")
    epochs = registry.counter("repro_fleet_epochs_total",
                              "protocol epochs consumed")
    frames = registry.counter("repro_fleet_frames_total",
                              "frames transmitted")
    retx = registry.counter("repro_fleet_retransmissions_total",
                            "frames beyond the lossless three")
    rejections = registry.counter("repro_fleet_rejections_total",
                                  "receiver-side frame rejections")
    energy = registry.counter("repro_fleet_energy_uj_total",
                              "microjoules spent, by role")
    availability = registry.gauge("repro_fleet_availability",
                                  "fraction of sessions that identified")
    for point in sorted(report.points, key=lambda p: p.frame_loss):
        loss = _loss_label(point.frame_loss)
        for record in point.records:
            if record.accepted:
                outcome = "accepted"
            elif record.completed:
                outcome = "rejected"
            else:
                outcome = "aborted"
            sessions.inc(loss=loss, outcome=outcome)
            epochs.inc(record.epochs_used, loss=loss)
            frames.inc(record.frames_sent, loss=loss)
            retx.inc(record.retransmissions, loss=loss)
            for kind, count in (("corrupt", record.corrupt_rejections),
                                ("stale", record.stale_rejections),
                                ("replay", record.replay_rejections)):
                if count:
                    rejections.inc(count, loss=loss, kind=kind)
            energy.inc(record.initiator_uj, loss=loss, role="initiator")
            energy.inc(record.responder_uj, loss=loss, role="responder")
        availability.set(point.availability, loss=loss)
    return registry


# ----------------------------------------------------------------------
# amortized report -> registry (the `protocol amortize` aggregation)
# ----------------------------------------------------------------------

def record_amortized_report(registry: MetricRegistry,
                            report) -> MetricRegistry:
    """Fold an AmortizedReport's sweep points into ``registry``.

    The energy counter's ``component`` label is the exact µJ
    decomposition the obs spans carry (``handshake`` /
    ``message_compute`` / ``message_radio``), so the rendered table,
    the exported metrics and the span tree all sum to the same total.
    """
    sessions = registry.counter("repro_backends_sessions_total",
                                "amortized sessions by sweep point")
    messages = registry.counter("repro_backends_messages_total",
                                "messages by sweep point and outcome")
    handshakes = registry.counter("repro_backends_handshakes_total",
                                  "asymmetric handshakes by outcome")
    attempts = registry.counter("repro_backends_attempts_total",
                                "data-frame transmissions, retries "
                                "included")
    energy = registry.counter("repro_backends_energy_uj_total",
                              "microjoules spent, by component")
    window = registry.gauge("repro_backends_key_window_messages",
                            "worst-case messages under one session "
                            "key")
    delivery = registry.gauge("repro_backends_delivery_rate",
                              "fraction of messages delivered")
    for point in sorted(report.points, key=lambda p: p.frame_loss):
        loss = _loss_label(point.frame_loss)
        worst = 0
        for record in point.records:
            sessions.inc(loss=loss)
            if record.delivered:
                messages.inc(record.delivered, loss=loss,
                             outcome="delivered")
            if record.failed:
                messages.inc(record.failed, loss=loss,
                             outcome="failed")
            if record.keys_used:
                handshakes.inc(record.keys_used, loss=loss,
                               outcome="keyed")
            if record.handshakes_failed:
                handshakes.inc(record.handshakes_failed, loss=loss,
                               outcome="failed")
            attempts.inc(record.attempts, loss=loss)
            energy.inc(record.handshake_uj, loss=loss,
                       component="handshake")
            energy.inc(record.message_compute_uj, loss=loss,
                       component="message_compute")
            energy.inc(record.message_radio_uj, loss=loss,
                       component="message_radio")
            worst = max(worst, record.worst_key_window)
        window.set(worst, loss=loss)
        delivery.set(point.delivery_rate, loss=loss)
    return registry


def amortized_point_stats(snapshot: dict, frame_loss: float) -> dict:
    """One sweep point's summary figures, read back from a snapshot."""
    loss = _loss_label(frame_loss)
    delivered = snapshot_value(snapshot,
                               "repro_backends_messages_total",
                               loss=loss, outcome="delivered")
    failed = snapshot_value(snapshot, "repro_backends_messages_total",
                            loss=loss, outcome="failed")
    total = delivered + failed
    keys = snapshot_value(snapshot, "repro_backends_handshakes_total",
                          loss=loss, outcome="keyed")
    handshake_uj = snapshot_value(snapshot,
                                  "repro_backends_energy_uj_total",
                                  loss=loss, component="handshake")
    message_uj = (
        snapshot_value(snapshot, "repro_backends_energy_uj_total",
                       loss=loss, component="message_compute")
        + snapshot_value(snapshot, "repro_backends_energy_uj_total",
                         loss=loss, component="message_radio"))
    uj_per_message = ((handshake_uj + message_uj) / delivered
                      if delivered else float("inf"))
    mean_handshake = handshake_uj / keys if keys else float("inf")
    # Baseline: pure ECC pays one full handshake plus the same data
    # frame per message (the frame bill is common to both designs).
    baseline = (mean_handshake + message_uj / delivered
                if delivered and keys else float("inf"))
    extension = (baseline / uj_per_message
                 if uj_per_message not in (0.0, float("inf"))
                 and baseline != float("inf") else 0.0)
    return {
        "delivered": int(delivered),
        "messages": int(total),
        "delivery_rate": delivered / total if total else 0.0,
        "keys_used": int(keys),
        "handshake_uj": handshake_uj,
        "message_uj": message_uj,
        "uj_per_message": uj_per_message,
        "extension_factor": extension,
    }


# ----------------------------------------------------------------------
# intermittent session -> registry (the `power run/soak` aggregation)
# ----------------------------------------------------------------------

def record_intermittent_result(registry: MetricRegistry,
                               result) -> MetricRegistry:
    """Fold one IntermittentResult into ``registry``.

    Counters accumulate across sessions (a soak calls this once per
    session); the energy counter is labelled by component so the CLI
    can read the checkpoint-overhead share straight out of the
    snapshot.
    """
    if result.accepted:
        outcome = "accepted"
    elif result.completed:
        outcome = "rejected"
    else:
        outcome = "aborted"
    registry.counter("repro_intermittent_sessions_total",
                     "intermittent sessions by outcome").inc(outcome=outcome)
    registry.counter("repro_intermittent_power_cycles_total",
                     "power cuts survived").inc(result.power_cycles)
    registry.counter("repro_intermittent_checkpoints_total",
                     "committed checkpoints").inc(result.checkpoints_committed)
    registry.counter("repro_intermittent_torn_discards_total",
                     "torn staged records discarded at power-on"
                     ).inc(result.torn_discards)
    steps = registry.counter("repro_intermittent_ladder_steps_total",
                             "ladder steps by productivity")
    steps.inc(result.steps_executed - result.steps_wasted, kind="productive")
    if result.steps_wasted:
        steps.inc(result.steps_wasted, kind="wasted")
    energy = registry.counter("repro_intermittent_energy_uj_total",
                              "microjoules spent, by component")
    energy.inc(result.compute_uj, component="compute")
    energy.inc(result.radio_uj, component="radio")
    energy.inc(result.checkpoint_uj, component="checkpoint")
    registry.histogram(
        "repro_intermittent_session_uj",
        "total microjoules per session",
        buckets=(1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0),
    ).observe(result.total_uj)
    return registry


def fleet_point_stats(snapshot: dict, frame_loss: float) -> dict:
    """One sweep point's summary figures, read back from a snapshot."""
    loss = _loss_label(frame_loss)
    n = sum(
        snapshot_value(snapshot, "repro_fleet_sessions_total",
                       loss=loss, outcome=outcome)
        for outcome in ("accepted", "rejected", "aborted")
    )
    accepted = snapshot_value(snapshot, "repro_fleet_sessions_total",
                              loss=loss, outcome="accepted")
    stats = {
        "sessions": int(n),
        "accepted": int(accepted),
        "availability": accepted / n if n else 0.0,
        "mean_epochs": (snapshot_value(
            snapshot, "repro_fleet_epochs_total", loss=loss) / n
            if n else 0.0),
        "mean_frames": (snapshot_value(
            snapshot, "repro_fleet_frames_total", loss=loss) / n
            if n else 0.0),
        "retransmissions": int(snapshot_value(
            snapshot, "repro_fleet_retransmissions_total", loss=loss)),
        "mean_initiator_uj": (snapshot_value(
            snapshot, "repro_fleet_energy_uj_total",
            loss=loss, role="initiator") / n if n else 0.0),
    }
    return stats
