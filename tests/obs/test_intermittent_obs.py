"""Tracing an intermittent session: the µJ rollup survives power cuts.

The energy contract extends to brownouts: however many times the
supply cuts out, the traced span tree and the metric counters must
reproduce the session's energy decomposition to the float digit —
including the checkpoint overhead and the re-executed steps.
"""

import os

import pytest

from repro.intermittent import (
    IntermittentSpec,
    PowerCutSchedule,
    run_with_schedule,
)
from repro.obs import runtime as obs_runtime
from repro.obs.report import energy_rollup, load_metrics, load_spans

SPEC = IntermittentSpec(curve="TOY-B17", seed=2013)


def snapshot_value(snapshot: dict, name: str, **labels) -> float:
    """One counter series out of a ``metrics.json`` snapshot (0.0 when
    the series is absent)."""
    wanted = {key: str(value) for key, value in labels.items()}
    for item in snapshot["metrics"].get(name, {"values": []})["values"]:
        if item["labels"] == wanted:
            return float(item["value"])
    return 0.0


@pytest.fixture(scope="module")
def traced_cut_session(tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs-intermittent")
    obs_dir = os.path.join(str(directory), obs_runtime.OBS_DIRNAME)
    schedule = PowerCutSchedule.seeded(7, 0, cuts=3,
                                       mean_on_cycles=8000)
    with obs_runtime.session(obs_dir, kind="intermittent",
                             seed=SPEC.seed):
        result = run_with_schedule(SPEC, 0, schedule)
    assert result.completed and result.power_cycles > 0
    return {"obs_dir": obs_dir, "result": result}


class TestSpans:
    def test_session_span_carries_the_cut_count(self, traced_cut_session):
        spans = load_spans(traced_cut_session["obs_dir"])
        result = traced_cut_session["result"]
        session = [s for s in spans
                   if s["name"] == "intermittent.session"]
        assert len(session) == 1
        assert session[0]["attrs"]["power_cycles"] == result.power_cycles
        assert session[0]["attrs"]["completed"] is True

    def test_children_partition_the_energy_exactly(self,
                                                   traced_cut_session):
        spans = load_spans(traced_cut_session["obs_dir"])
        result = traced_cut_session["result"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["intermittent.compute"]["uj"] == result.compute_uj
        assert by_name["intermittent.radio"]["uj"] == result.radio_uj
        assert by_name["intermittent.checkpoint"]["uj"] == \
            result.checkpoint_uj
        assert by_name["intermittent.session"]["uj"] == result.total_uj

    def test_rollup_total_is_the_session_total(self, traced_cut_session):
        rollup = energy_rollup(load_spans(traced_cut_session["obs_dir"]))
        result = traced_cut_session["result"]
        assert rollup["total_uj"] == pytest.approx(result.total_uj,
                                                   abs=1e-12)
        grand = sum(entry["self_uj"]
                    for entry in rollup["by_name"].values())
        assert grand == pytest.approx(result.total_uj, abs=1e-12)
        # The session span keeps no self energy: the components claim
        # every microjoule.
        assert rollup["by_name"]["intermittent.session"]["self_uj"] == \
            pytest.approx(0.0, abs=1e-12)


class TestMetrics:
    def test_energy_counter_components_sum_to_total(self,
                                                    traced_cut_session):
        snapshot = load_metrics(traced_cut_session["obs_dir"])
        result = traced_cut_session["result"]
        name = "repro_intermittent_energy_uj_total"
        parts = {
            component: snapshot_value(snapshot, name,
                                      component=component)
            for component in ("compute", "radio", "checkpoint")
        }
        assert parts["checkpoint"] == result.checkpoint_uj
        assert sum(parts.values()) == pytest.approx(result.total_uj,
                                                    abs=1e-12)

    def test_cut_bookkeeping_counters(self, traced_cut_session):
        snapshot = load_metrics(traced_cut_session["obs_dir"])
        result = traced_cut_session["result"]
        assert snapshot_value(
            snapshot, "repro_intermittent_power_cycles_total"
        ) == result.power_cycles
        assert snapshot_value(
            snapshot, "repro_intermittent_sessions_total",
            outcome="accepted") == 1
        wasted = snapshot_value(
            snapshot, "repro_intermittent_ladder_steps_total",
            kind="wasted")
        productive = snapshot_value(
            snapshot, "repro_intermittent_ladder_steps_total",
            kind="productive")
        assert wasted == result.steps_wasted
        assert productive + wasted == result.steps_executed
