"""The exported metric families agree with the reports they come from.

A soak's printed table renders its report object's properties; a
traced run exports the same records through the recorders of
:mod:`repro.obs.integration`.  Each in-memory soak runs here under an
obs session, and every series of its family is compared with the
report: ``repro_fleet_*`` per :class:`~repro.protocols.fleet.SweepPoint`
and ``repro_intermittent_*`` against the
:class:`~repro.protocols.fleet.PowerSoakReport`.  (The amortized
family's case lives in ``tests/protocols/test_amortized.py``.)
"""

import os

import pytest

from repro.obs import runtime as obs_runtime
from repro.protocols.fleet import (FleetSpec, PowerSoakSpec, run_fleet,
                                   run_power_soak)

#: 0.6 frame loss aborts some sessions, so every outcome label shows.
FLEET = FleetSpec(sessions=6, seed=2013, sweep=(0.0, 0.6))
POWER = PowerSoakSpec(sessions=4, seed=2013)


def traced(tmp_path, kind, run):
    obs_dir = os.path.join(str(tmp_path), obs_runtime.OBS_DIRNAME)
    with obs_runtime.session(obs_dir, kind=kind, seed=2013) as rt:
        report = run()
    return report, rt.registry


class TestFleetFamily:
    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        return traced(tmp_path_factory.mktemp("fleet-family"), "fleet",
                      lambda: run_fleet(FLEET, workers=0))

    def test_a_point_is_degraded(self, fleet):
        report, _ = fleet
        assert not report.fully_available

    def test_sessions_by_outcome(self, fleet):
        report, registry = fleet
        sessions = registry.get("repro_fleet_sessions_total")
        for point in report.points:
            loss = f"{point.frame_loss:g}"
            by_outcome = {outcome: sessions.value(loss=loss,
                                                  outcome=outcome)
                          for outcome in ("accepted", "rejected",
                                          "aborted")}
            assert sum(by_outcome.values()) == point.sessions
            assert by_outcome["accepted"] == point.successes
            assert registry.get("repro_fleet_availability").value(
                loss=loss) == point.availability

    def test_retry_bill(self, fleet):
        report, registry = fleet
        for point in report.points:
            loss = f"{point.frame_loss:g}"
            assert registry.get("repro_fleet_epochs_total").value(
                loss=loss) / point.sessions == point.mean_epochs
            assert registry.get("repro_fleet_frames_total").value(
                loss=loss) / point.sessions == point.mean_frames
            assert registry.get(
                "repro_fleet_retransmissions_total").value(loss=loss) \
                == point.total_retransmissions

    def test_initiator_energy(self, fleet):
        report, registry = fleet
        energy = registry.get("repro_fleet_energy_uj_total")
        for point in report.points:
            loss = f"{point.frame_loss:g}"
            assert energy.value(loss=loss, role="initiator") \
                / point.sessions == point.mean_initiator_uj
            assert energy.value(loss=loss, role="responder") == sum(
                r.responder_uj for r in point.records)


class TestPowerFamily:
    @pytest.fixture(scope="class")
    def power(self, tmp_path_factory):
        return traced(tmp_path_factory.mktemp("power-family"), "power",
                      lambda: run_power_soak(POWER, workers=0))

    def test_sessions_by_outcome(self, power):
        report, registry = power
        sessions = registry.get("repro_intermittent_sessions_total")
        assert sessions.value(outcome="accepted") == report.accepted
        assert sessions.value(outcome="accepted") \
            + sessions.value(outcome="rejected") == report.completed
        assert sessions.total() == report.sessions

    def test_cut_bookkeeping(self, power):
        report, registry = power
        records = report.records
        assert registry.get("repro_intermittent_power_cycles_total"
                            ).value() == report.total_power_cycles
        assert report.total_power_cycles > 0
        assert registry.get("repro_intermittent_torn_discards_total"
                            ).value() == report.total_torn_discards
        assert registry.get("repro_intermittent_checkpoints_total"
                            ).value() == sum(r.checkpoints_committed
                                             for r in records)
        steps = registry.get("repro_intermittent_ladder_steps_total")
        wasted = sum(r.steps_wasted for r in records)
        assert steps.value(kind="wasted") == wasted
        assert steps.value(kind="productive") == sum(
            r.steps_executed for r in records) - wasted

    def test_energy(self, power):
        report, registry = power
        records = report.records
        energy = registry.get("repro_intermittent_energy_uj_total")
        for component in ("compute", "radio", "checkpoint"):
            assert energy.value(component=component) == sum(
                getattr(r, f"{component}_uj") for r in records)
        per_session = registry.get("repro_intermittent_session_uj").state()
        assert per_session.count == report.sessions
        assert per_session.sum == sum(r.total_uj for r in records)
        assert per_session.max == max(r.total_uj for r in records)
