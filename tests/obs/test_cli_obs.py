"""The `obs` CLI verbs and the --obs flags on campaign/protocol."""

import json
import os

import pytest

from repro.cli import main

ACQUIRE = ["campaign", "acquire", "--curve", "TOY-B17", "--traces", "6",
           "--shard-size", "2", "--workers", "1", "--seed", "7",
           "--quiet", "--obs"]


@pytest.fixture(scope="class")
def traced_cli_run(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("obs-cli") / "camp")
    assert main(ACQUIRE + ["--dir", directory]) == 0
    return directory


class TestObsReport:
    def test_acquire_announces_the_obs_dir(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        assert main(ACQUIRE + ["--dir", d]) == 0
        out = capsys.readouterr().out
        assert "observability:" in out
        assert os.path.isdir(os.path.join(d, "obs"))

    def test_report_prints_energy_rollup(self, traced_cli_run, capsys):
        assert main(["obs", "report", "--dir", traced_cli_run]) == 0
        out = capsys.readouterr().out
        assert "energy by span (self / total):" in out
        assert "total energy:" in out
        assert "ladder.step" in out

    def test_report_json_is_machine_readable(self, traced_cli_run,
                                             capsys):
        assert main(["obs", "report", "--dir", traced_cli_run,
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_uj"] > 0
        assert data["manifest"]["kind"] == "campaign"

    def test_required_spans_and_metrics_gate_exit_code(
            self, traced_cli_run, capsys):
        assert main([
            "obs", "report", "--dir", traced_cli_run,
            "--require-spans", "campaign.acquire,shard,trace,ladder.step",
            "--require-metrics",
            "repro_campaign_energy_uj_total,repro_arch_pointmult_cycles",
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "report", "--dir", traced_cli_run,
                     "--require-spans", "never.seen"]) == 1
        assert "missing span" in capsys.readouterr().out

    def test_report_without_obs_data_fails_cleanly(self, tmp_path,
                                                   capsys):
        assert main(["obs", "report", "--dir", str(tmp_path)]) == 1
        assert "obs error:" in capsys.readouterr().err


class TestCampaignAttackObs:
    def test_attack_traces_into_its_own_dir(self, traced_cli_run, tmp_path,
                                            capsys):
        acquired = os.path.join(traced_cli_run, "obs", "metrics.json")
        with open(acquired, "rb") as f:
            acquire_metrics = f.read()
        obs_dir = str(tmp_path / "attack-obs")
        assert main(["campaign", "attack", "--dir", traced_cli_run,
                     "--bits", "2", "--obs-dir", obs_dir]) == 0
        assert f"observability: {obs_dir}" in capsys.readouterr().out
        with open(os.path.join(obs_dir, "metrics.json")) as f:
            metrics = json.load(f)["metrics"]
        bits = metrics["repro_campaign_attack_bits_total"]["values"]
        assert sum(item["value"] for item in bits) == 2
        with open(acquired, "rb") as f:
            assert f.read() == acquire_metrics
        assert main(["obs", "report", "--dir", obs_dir,
                     "--require-spans", "campaign.attack",
                     "--require-metrics",
                     "repro_campaign_attack_bits_total"]) == 0


class TestObsDiff:
    def test_self_diff_passes_threshold(self, traced_cli_run, capsys):
        assert main(["obs", "diff", traced_cli_run, traced_cli_run,
                     "--max-regression", "20"]) == 0
        assert "ok: no metric above +20%" in capsys.readouterr().out

    def test_regression_fails_the_diff(self, traced_cli_run, tmp_path,
                                       capsys):
        from repro.obs.metrics import MetricRegistry
        from repro.obs.report import load_metrics, resolve_obs_dir

        registry = MetricRegistry()
        registry.merge_snapshot(
            load_metrics(resolve_obs_dir(traced_cli_run)))
        registry.counter("repro_campaign_traces_total").inc(50)
        worse = str(tmp_path / "worse.json")
        registry.write_snapshot(worse)
        assert main(["obs", "diff", traced_cli_run, worse,
                     "--filter", "repro_campaign_traces_total",
                     "--max-regression", "20"]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestDoctorProvenance:
    def test_doctor_shows_pid_and_attempt_wall(self, tmp_path, capsys):
        d = str(tmp_path / "chaos")
        code = main([
            "campaign", "acquire", "--dir", d, "--curve", "TOY-B17",
            "--traces", "4", "--shard-size", "2", "--workers", "2",
            "--seed", "7", "--quiet", "--chaos", "error=0.6",
            "--chaos-seed", "3", "--max-attempts", "2",
        ])
        assert code == 3
        capsys.readouterr()
        assert main(["campaign", "doctor", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "(pid " in out
        assert "s)" in out and ", ran " in out


class TestObsTailAlertsTrend:
    """The telemetry verbs: tail, alerts (exit contract), trend."""

    @pytest.fixture(scope="class")
    def flood_soak(self, tmp_path_factory):
        from repro.adversary import AttackSpec, run_attack_soak

        directory = str(tmp_path_factory.mktemp("flood") / "soak")
        spec = AttackSpec(adversary="bogus-flood", defense="none",
                          sessions=12, cohorts=1, legit_fraction=0.2,
                          seed=2013)
        run_attack_soak(directory, spec, workers=1)
        return directory

    @pytest.fixture(scope="class")
    def clean_soak(self, tmp_path_factory):
        from repro.adversary import AttackSpec, run_attack_soak

        directory = str(tmp_path_factory.mktemp("clean") / "soak")
        spec = AttackSpec(adversary="bogus-flood", defense="none",
                          sessions=12, cohorts=1, legit_fraction=1.0,
                          seed=2013)
        run_attack_soak(directory, spec, workers=1)
        return directory

    def test_tail_renders_the_series_table(self, flood_soak, capsys):
        assert main(["obs", "tail", "--dir", flood_soak]) == 0
        out = capsys.readouterr().out
        assert "session_uj" in out and "drain_uj" in out
        assert "p99=" in out
        assert "no flight-recorder dumps" in out

    def test_tail_json_is_the_telemetry_snapshot(self, flood_soak,
                                                 capsys):
        assert main(["obs", "tail", "--dir", flood_soak,
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "session_uj" in data["series"]

    def test_tail_without_telemetry_fails_cleanly(self, tmp_path,
                                                  capsys):
        assert main(["obs", "tail", "--dir", str(tmp_path)]) == 1
        assert "obs error:" in capsys.readouterr().err

    def test_alerts_exit_3_when_the_flood_is_detected(self, flood_soak,
                                                      capsys):
        assert main(["obs", "alerts", "--dir", flood_soak]) == 3
        out = capsys.readouterr().out
        assert "energy_session_p99" in out

    def test_alerts_exit_0_on_the_clean_baseline(self, clean_soak,
                                                 capsys):
        assert main(["obs", "alerts", "--dir", clean_soak]) == 0
        out = capsys.readouterr().out
        assert "every rule stayed silent" in out

    def test_trend_folds_and_is_idempotent(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_a.json").write_text(
            json.dumps({"speedup": 2.0}))
        assert main(["obs", "trend", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "folded new entry" in out
        assert (results / "BENCH_trend.json").exists()
        assert main(["obs", "trend", "--results", str(results)]) == 0
        assert "trend untouched" in capsys.readouterr().out


class TestProtocolObs:
    def test_soak_writes_and_reports_protocol_spans(self, tmp_path,
                                                    capsys):
        obs_dir = str(tmp_path / "soak-obs")
        assert main(["protocol", "soak", "--sessions", "2",
                     "--sweep", "0,0.2", "--workers", "0", "--seed", "5",
                     "--quiet", "--obs-dir", obs_dir]) == 0
        capsys.readouterr()
        assert main([
            "obs", "report", "--dir", obs_dir,
            "--require-spans", "protocol.soak,protocol.session",
            "--require-metrics",
            "repro_protocol_sessions_total,repro_channel_frames_total",
        ]) == 0
        out = capsys.readouterr().out
        assert "protocol.soak" in out
