"""Recorders that export domain reports into the metric registry.

A traced run's ``metrics.json`` carries three families built here:
``repro_fleet_*`` from a :class:`~repro.protocols.fleet.FleetReport`,
``repro_backends_*`` from an
:class:`~repro.protocols.amortized.AmortizedReport`, and
``repro_intermittent_*`` from each intermittent session's result.
``obs report`` and ``obs diff`` read those families; the printed
summaries do not.  Each report object computes its own figures once,
as properties, and its ``summary()`` renders them directly, so the
table, the verdict and the exit code read one computation.  These
recorders fold the same records, so the exported counters agree with
the report's properties (a test pins that).

The recorders duck-type their arguments and import no protocol
module, so :mod:`repro.obs` itself remains import-light
(instrumented modules import it at module scope).
"""

from __future__ import annotations

from .metrics import MetricRegistry

__all__ = ["record_fleet_report", "record_intermittent_result",
           "record_amortized_report"]


# ----------------------------------------------------------------------
# fleet report -> registry (`protocol soak`)
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
# amortized report -> registry (`protocol amortize`)
# ----------------------------------------------------------------------

def record_amortized_report(registry: MetricRegistry,
                            report) -> MetricRegistry:
    """Fold an AmortizedReport's sweep points into ``registry``.

    The energy counter's ``component`` label is the exact µJ
    decomposition the obs spans carry (``handshake`` /
    ``message_compute`` / ``message_radio``), so the exported metrics
    and the span tree sum to the same total.
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


# ----------------------------------------------------------------------
# intermittent session -> registry (`power run/soak`)
# ----------------------------------------------------------------------

def record_intermittent_result(registry: MetricRegistry,
                               result) -> MetricRegistry:
    """Fold one IntermittentResult into ``registry``.

    Counters accumulate across sessions (a soak calls this once per
    session); the energy counter is labelled by component, so the
    checkpoint-overhead share is one series of the exported family.
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
