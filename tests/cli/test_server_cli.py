"""Tests for the ``server`` CLI group."""

import json
import shutil
import urllib.request

import pytest

from repro.cli import (
    EXIT_DEGRADED,
    EXIT_FAILED,
    EXIT_OK,
    cmd_server_enroll,
    cmd_server_run,
    cmd_server_soak,
    main,
)
from repro.server import EnrollmentStore, SoakSpec
from repro.server.soak import SUMMARY_NAME


@pytest.fixture(scope="module")
def cli_fleet(tmp_path_factory):
    directory = tmp_path_factory.mktemp("clifleet")
    text, code = cmd_server_enroll(str(directory), tags=120,
                                   shard_size=48, seed=5, workers=1)
    assert code == EXIT_OK
    assert "120 tags over 3 shard(s)" in text
    return directory


def make_spec(cli_fleet, **overrides):
    store = EnrollmentStore(cli_fleet, verify=False)
    kwargs = dict(
        enrollment_digest=store.spec.digest(),
        store_dir=str(cli_fleet),
        sessions=25,
        cohorts=2,
        frame_loss=0.1,
        seed=3,
    )
    kwargs.update(overrides)
    return SoakSpec(**kwargs)


class TestEnroll:
    def test_reenroll_reports_reuse(self, cli_fleet):
        text, code = cmd_server_enroll(str(cli_fleet), tags=120,
                                       shard_size=48, seed=5, workers=1)
        assert code == EXIT_OK
        assert "built 0, reused 3" in text

    def test_via_main(self, cli_fleet, capsys):
        code = main(["server", "enroll", "--dir", str(cli_fleet),
                     "--tags", "120", "--shard-size", "48",
                     "--seed", "5", "--workers", "1"])
        assert code == EXIT_OK
        assert "reused 3" in capsys.readouterr().out

    def test_other_spec_same_dir_fails(self, cli_fleet, capsys):
        code = main(["server", "enroll", "--dir", str(cli_fleet),
                     "--tags", "121", "--shard-size", "48",
                     "--seed", "5", "--workers", "1"])
        assert code == EXIT_FAILED
        assert "different fleet" in capsys.readouterr().err


class TestSoak:
    def test_clean_soak(self, cli_fleet, tmp_path):
        spec = make_spec(cli_fleet)
        text, code = cmd_server_soak(str(tmp_path), spec, workers=1)
        assert code == EXIT_OK
        assert "clean" in text
        summary = json.loads((tmp_path / SUMMARY_NAME).read_text())
        assert summary["totals"]["sessions"] == 50

    def test_acceptance_floor_fails(self, cli_fleet, tmp_path):
        # An impossible deadline: every session times out, acceptance
        # 0% — the soak must FAIL, not shrug.
        spec = make_spec(cli_fleet, session_deadline_s=1e-6)
        text, code = cmd_server_soak(str(tmp_path), spec, workers=1,
                                     min_acceptance=0.9)
        assert code == EXIT_FAILED
        assert "below the floor" in text

    def test_chaos_quarantine_degrades(self, cli_fleet, tmp_path):
        spec = make_spec(cli_fleet, cohorts=1, sessions=8)
        text, code = cmd_server_soak(str(tmp_path), spec, workers=2,
                                     chaos="crash=1.0", chaos_seed=0,
                                     min_acceptance=0.0)
        assert code == EXIT_DEGRADED
        assert "degraded" in text

    def test_via_main_missing_store(self, tmp_path, capsys):
        code = main(["server", "soak", "--store", str(tmp_path),
                     "--dir", str(tmp_path / "out")])
        assert code == EXIT_FAILED
        assert "server error" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", [
        lambda spec: spec.update(tags="20"),
        lambda spec: spec.update(bogus=1),
        lambda spec: spec.pop("seed"),
    ], ids=["str-tags", "extra-key", "missing-key"])
    def test_via_main_tampered_store(self, cli_fleet, tmp_path, capsys,
                                     tamper):
        store = tmp_path / "fleet"
        shutil.copytree(cli_fleet, store)
        manifest_path = store / "enrollment.json"
        manifest = json.loads(manifest_path.read_text())
        tamper(manifest["spec"])
        manifest_path.write_text(json.dumps(manifest))
        code = main(["server", "soak", "--store", str(store),
                     "--dir", str(tmp_path / "out"), "--workers", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED
        assert err.startswith("server error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tamper", [
        lambda m: dict(m, shards=5),
        lambda m: dict(m, shards=[7] + m["shards"][1:]),
        lambda m: [m],
        lambda m: dict(m, shards=[{k: v for k, v in e.items()
                                   if k != "shard"}
                                  for e in m["shards"]]),
        lambda m: {k: v for k, v in m.items() if k != "shards"},
        lambda m: dict(m, shards=[dict(e, count="48")
                                  for e in m["shards"]]),
    ], ids=["int-shards", "int-entry", "list-root", "entry-lacks-shard",
            "missing-shards", "str-count"])
    def test_via_main_tampered_envelope(self, cli_fleet, tmp_path, capsys,
                                        tamper):
        """A malformed envelope around the enrollment spec is reported
        as one line naming the manifest."""
        store = tmp_path / "fleet"
        shutil.copytree(cli_fleet, store)
        manifest_path = store / "enrollment.json"
        manifest_path.write_text(json.dumps(
            tamper(json.loads(manifest_path.read_text()))))
        code = main(["server", "soak", "--store", str(store),
                     "--dir", str(tmp_path / "out"), "--workers", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED
        assert err.startswith("server error:")
        assert err.count("\n") == 1
        assert str(manifest_path) in err


class TestRun:
    def test_run_without_metrics(self, cli_fleet):
        spec = make_spec(cli_fleet, cohorts=1)
        text, code = cmd_server_run(spec)
        assert code == EXIT_OK
        assert "served 25 session(s)" in text
        assert "scheduler coalesced" in text

    def test_run_serves_live_metrics(self, cli_fleet, capsys):
        spec = make_spec(cli_fleet, cohorts=1)
        text, code = cmd_server_run(spec, metrics_port=0)
        assert code == EXIT_OK
        url = capsys.readouterr().out.split()[-1]
        assert url.startswith("http://127.0.0.1:")
        # The exporter is stopped after the run; the URL was live
        # during it (scrape loop example lives in the README).
        with pytest.raises(OSError):
            urllib.request.urlopen(url, timeout=1)

    def test_via_main(self, cli_fleet, capsys):
        code = main(["server", "run", "--store", str(cli_fleet),
                     "--sessions", "10", "--seed", "3"])
        assert code == EXIT_OK
        assert "served 10 session(s)" in capsys.readouterr().out
