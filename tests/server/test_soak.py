"""Tests for the supervised soak: determinism is the headline.

``summary.json`` is byte-identical across worker counts and across
chaos (a killed worker's cohort is retried and the retry reproduces
it exactly).
"""

import json

import pytest

from repro.campaign import RetryPolicy
from repro.campaign.chaos import ChaosConfig
from repro.obs.alerts import ALERTS_NAME
from repro.obs.stream import TELEMETRY_NAME
from repro.server import ServerError, SoakSpec, run_soak
from repro.server.soak import SUMMARY_NAME, simulate_cohort


@pytest.fixture(scope="module")
def soak_spec(fleet_store):
    return SoakSpec(
        enrollment_digest=fleet_store.spec.digest(),
        store_dir=fleet_store.directory,
        sessions=40,
        cohorts=2,
        frame_loss=0.15,
        seed=11,
    )


class TestSpec:
    def test_digest_ignores_store_dir(self, soak_spec):
        import dataclasses
        moved = dataclasses.replace(soak_spec,
                                    store_dir="/somewhere/else")
        assert moved.digest() == soak_spec.digest()
        assert "store_dir" not in soak_spec.identity_dict()

    def test_round_trip(self, soak_spec):
        assert SoakSpec.from_dict(soak_spec.to_dict()) == soak_spec

    def test_validation(self, fleet_store):
        with pytest.raises(ValueError):
            SoakSpec(enrollment_digest="x", store_dir=".", sessions=0)
        with pytest.raises(ValueError):
            SoakSpec(enrollment_digest="x", store_dir=".",
                     arrival_rate=0)


class TestSimulateCohort:
    def test_deterministic(self, soak_spec):
        a = simulate_cohort(soak_spec, 0)
        b = simulate_cohort(soak_spec, 0)
        assert a == b

    def test_cohorts_are_disjoint(self, soak_spec):
        a = simulate_cohort(soak_spec, 0)
        b = simulate_cohort(soak_spec, 1)
        assert a["first_index"] == 0
        assert b["first_index"] == soak_spec.sessions
        assert a["outcomes"] != {} and b["outcomes"] != {}

    def test_refuses_wrong_fleet(self, soak_spec):
        import dataclasses
        wrong = dataclasses.replace(soak_spec,
                                    enrollment_digest="0" * 64)
        with pytest.raises(ServerError, match="holds fleet"):
            simulate_cohort(wrong, 0)


class TestByteIdenticalSummaries:
    def test_across_worker_counts_and_chaos(self, tmp_path, soak_spec):
        dir_1 = tmp_path / "w1"
        dir_4 = tmp_path / "w4"
        dir_chaos = tmp_path / "chaos"
        run_soak(dir_1, soak_spec, workers=1)
        run_soak(dir_4, soak_spec, workers=4)
        # crash=0.4: workers die (os._exit) before their cohort runs;
        # the supervisor retries and the retry must reproduce the
        # cohort exactly.
        chaos_report = run_soak(dir_chaos, soak_spec, workers=2,
                                chaos=ChaosConfig.parse("crash=0.4",
                                                        seed=1))
        assert chaos_report.outcome == "clean"
        for name in (SUMMARY_NAME, TELEMETRY_NAME, ALERTS_NAME):
            baseline = (dir_1 / name).read_bytes()
            assert (dir_4 / name).read_bytes() == baseline
            assert (dir_chaos / name).read_bytes() == baseline

    def test_clean_soak_raises_no_alerts(self, tmp_path, soak_spec):
        """An honest fleet under ordinary loss must not trip the
        default rulebook — zero false positives is the baseline the
        detection claims stand on."""
        report = run_soak(tmp_path / "quiet", soak_spec, workers=1)
        assert report.alert_firings == 0
        summary = json.loads(
            (tmp_path / "quiet" / SUMMARY_NAME).read_text())
        block = summary["telemetry"]
        assert block["alerts"] == {"firings": 0, "by_rule": {}}
        assert block["events"] > 0
        assert set(block["session_uj"]) == \
            {"count", "p50", "p95", "p99", "max"}
        assert block["session_uj"]["count"] == report.sessions
        telemetry = json.loads(
            (tmp_path / "quiet" / TELEMETRY_NAME).read_text())
        assert telemetry["series"]["session_uj"]["count"] == \
            report.sessions

    def test_summary_shape(self, tmp_path, soak_spec):
        report = run_soak(tmp_path / "s", soak_spec, workers=1)
        assert report.outcome == "clean"
        assert report.sessions == soak_spec.sessions * soak_spec.cohorts
        assert report.accepted == report.correct == report.sessions
        summary = json.loads((tmp_path / "s" / SUMMARY_NAME).read_text())
        assert summary["spec_digest"] == soak_spec.digest()
        assert summary["totals"]["sessions"] == report.sessions
        assert len(summary["cohorts"]) == soak_spec.cohorts
        families = set(summary["metrics"]["metrics"])
        assert "repro_server_sessions_total" in families
        assert "repro_server_energy_uj_total" in families
        # Wall-clock families never reach a summary.
        assert not any(name.endswith("_seconds") for name in families)

    def test_energy_totals_match_metrics_exactly(self, tmp_path,
                                                 soak_spec):
        """The summary's µJ totals and the merged metric counter are
        the same numbers — the energy model is the single source."""
        run_soak(tmp_path / "e", soak_spec, workers=1)
        summary = json.loads((tmp_path / "e" / SUMMARY_NAME).read_text())
        counter = summary["metrics"]["metrics"][
            "repro_server_energy_uj_total"]["values"]
        by_role = {tuple(v["labels"].items())[0][1]: v["value"]
                   for v in counter}
        totals = summary["totals"]
        assert totals["tag_energy_uj"] == \
            pytest.approx(by_role["tag"], rel=1e-9)
        assert totals["reader_energy_uj"] == \
            pytest.approx(by_role["reader"], rel=1e-9)


class TestChaosQuarantine:
    def test_always_crashing_cohort_degrades_not_hangs(self, tmp_path,
                                                       soak_spec):
        """A cohort whose worker is always killed leaves no stuck
        session — the supervisor retries, quarantines, and the soak
        returns degraded instead of hanging."""
        import dataclasses
        spec = dataclasses.replace(soak_spec, cohorts=1, sessions=10)
        report = run_soak(tmp_path / "q", spec, workers=2,
                          chaos=ChaosConfig.parse("crash=1.0", seed=0))
        assert report.outcome == "degraded"
        assert report.quarantined == [0]
        assert report.cohorts_completed == 0
        summary = json.loads((tmp_path / "q" / SUMMARY_NAME).read_text())
        assert summary["outcome"] == "degraded"
        assert summary["quarantined"] == [0]
        assert list((tmp_path / "q").glob("*.tmp")) == []

    def test_crash_fires_when_most_arrivals_are_shed(self, tmp_path,
                                                     soak_spec):
        """The crash fires before the cohort body, so a cohort that
        sheds 17 of its 20 arrivals is killed like any other."""
        import dataclasses
        spec = dataclasses.replace(soak_spec, cohorts=1, sessions=20,
                                   capacity=1, admission_queue=1,
                                   arrival_rate=1e6)
        report = run_soak(tmp_path / "shed", spec, workers=2,
                          chaos=ChaosConfig.parse("crash=1.0"),
                          policy=RetryPolicy(base_delay=0.0, jitter=0.0))
        assert report.outcome == "degraded"
        assert report.quarantined == [0]

    def test_wrong_fleet_fails_fast(self, tmp_path, soak_spec):
        import dataclasses
        wrong = dataclasses.replace(soak_spec,
                                    enrollment_digest="f" * 64)
        with pytest.raises(ServerError, match="holds fleet"):
            run_soak(tmp_path / "w", wrong, workers=1)
