"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.cli import (
    cmd_area,
    cmd_energy,
    cmd_evaluate,
    cmd_info,
    cmd_listing,
    main,
)


class TestCommands:
    def test_info(self):
        text = cmd_info()
        assert "K-163" in text
        assert "6 x 163" in text

    def test_area(self):
        text = cmd_area()
        assert "PRESENT-80" in text
        assert "ECC K-163" in text
        assert "registers" in text

    def test_energy(self):
        text = cmd_energy()
        assert "uW" in text and "uJ" in text
        assert "paper" in text

    def test_listing(self):
        text = cmd_listing(limit=15)
        assert "ldi" in text
        assert "MALU occupancy" in text

    def test_evaluate_weak(self):
        text = cmd_evaluate(weak=True, traces=40)
        assert "VULNERABLE" in text


class TestMain:
    def test_info_exit_code(self, capsys):
        assert main(["info"]) == 0
        assert "K-163" in capsys.readouterr().out

    def test_area_exit_code(self, capsys):
        assert main(["area"]) == 0
        assert "GE" in capsys.readouterr().out

    def test_listing_with_limit(self, capsys):
        assert main(["listing", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "more)" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCampaignVerbs:
    """End-to-end `repro campaign` lifecycle on a tiny campaign."""

    ACQUIRE = ["campaign", "acquire", "--traces", "6", "--shard-size", "3",
               "--workers", "1", "--scenario", "unprotected",
               "--seed", "9", "--bits", "1", "--quiet"]

    def test_acquire_status_attack(self, tmp_path, capsys):
        d = str(tmp_path / "camp")

        assert main(self.ACQUIRE + ["--dir", d]) == 0
        out = capsys.readouterr().out
        assert "6/6 traces on disk" in out
        assert "2 shard(s)" in out

        assert main(["campaign", "status", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "scenario: unprotected" in out
        assert "traces: 6/6" in out
        assert "none — complete" in out

        assert main(["campaign", "attack", "--dir", d, "--attack", "dpa",
                     "--bits", "1", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "DPA over 6 traces" in out
        assert "verdict: key bits" in out

    def test_acquire_is_resumable_via_cli(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        assert main(self.ACQUIRE + ["--dir", d]) == 0
        capsys.readouterr()
        # Second run acquires nothing new.
        assert main(self.ACQUIRE + ["--dir", d]) == 0
        out = capsys.readouterr().out
        assert "0/6 traces in 0 shard(s) (+2 resumed)" in out

    def test_status_without_manifest(self, tmp_path, capsys):
        assert main(["campaign", "status", "--dir", str(tmp_path)]) == 0
        assert "no manifest" in capsys.readouterr().out

    def test_spa_attack_verb(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        assert main(self.ACQUIRE + ["--dir", d]) == 0
        capsys.readouterr()
        assert main(["campaign", "attack", "--dir", d,
                     "--attack", "spa"]) == 0
        out = capsys.readouterr().out
        assert "SPA over 6 traces" in out
        assert "ladder bits" in out

    def test_attack_requires_existing_campaign(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["campaign", "attack", "--dir", str(tmp_path / "nope")])


class TestFailureLifecycle:
    """Exit-code contract: degraded=3, failed=1, interrupted=130 —
    driven through the chaos harness and `campaign doctor`."""

    ACQUIRE = ["campaign", "acquire", "--traces", "6", "--shard-size", "3",
               "--workers", "1", "--scenario", "unprotected",
               "--seed", "9", "--bits", "1", "--quiet"]
    # Shard 1 fails deterministically on every attempt; shard 0 is
    # healthy.  Inline (workers=1) because `error` needs no processes.
    BROKEN = ["--chaos", "error=1.0", "--chaos-shards", "1",
              "--max-attempts", "2"]

    def _degraded(self, directory, capsys):
        code = main(self.ACQUIRE + self.BROKEN + ["--dir", directory])
        out = capsys.readouterr().out
        return code, out

    def test_degraded_acquire_exits_3_and_names_the_log(
            self, tmp_path, capsys):
        code, out = self._degraded(str(tmp_path / "camp"), capsys)
        assert code == 3
        assert "DEGRADED" in out
        assert "failures.jsonl" in out
        assert "QUARANTINED shards [1]" in out

    def test_status_shows_coverage_and_quarantine(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        self._degraded(d, capsys)
        assert main(["campaign", "status", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "coverage: 3/6 traces (1/2 shards, 50.0%)" in out
        assert "quarantined shards: [1]" in out
        assert "failures:" in out

    def test_attack_refuses_partial_store_with_exit_1(
            self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        self._degraded(d, capsys)
        code = main(["campaign", "attack", "--dir", d, "--bits", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "campaign error" in captured.err
        assert "--allow-partial" in captured.err

    def test_allow_partial_attack_reports_provenance(
            self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        self._degraded(d, capsys)
        code = main(["campaign", "attack", "--dir", d, "--bits", "1",
                     "--allow-partial"])
        out = capsys.readouterr().out
        assert code == 0
        assert "provenance: 3 trace(s) from shard(s) [0]" in out
        assert "PARTIAL" in out

    def test_doctor_then_clear_then_clean_reacquire(
            self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        self._degraded(d, capsys)

        assert main(["campaign", "doctor", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "quarantined shard 1" in out
        assert "--clear" in out

        assert main(["campaign", "doctor", "--dir", d, "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared quarantine for shard(s) [1]" in out

        # Without the chaos flag the environment is healthy again.
        assert main(self.ACQUIRE + ["--dir", d]) == 0
        out = capsys.readouterr().out
        assert "6/6 traces on disk" in out

    def test_doctor_on_healthy_campaign(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        assert main(self.ACQUIRE + ["--dir", d]) == 0
        capsys.readouterr()
        assert main(["campaign", "doctor", "--dir", d]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_interrupt_exits_130_with_resume_hint(
            self, tmp_path, capsys, monkeypatch):
        import repro.campaign

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.campaign.AcquisitionEngine, "run",
                            interrupted)
        argv = self.ACQUIRE + ["--dir", str(tmp_path / "camp")]
        assert main(argv) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "resume with" in err
        assert "campaign acquire" in err

    def test_chaos_needs_processes_surfaces_cleanly(self, tmp_path, capsys):
        # crash chaos with workers=1 is a usage error, reported before
        # any work starts.
        assert main(self.ACQUIRE + ["--dir", str(tmp_path / "camp"),
                                    "--chaos", "crash=1.0"]) == 1
        err = capsys.readouterr().err
        assert "campaign error:" in err
        assert "worker processes" in err


class TestBadInput:
    """Bad input to ``campaign`` and ``dse`` exits 1 with one
    ``<group> error:`` line, as in the other verb groups, never with a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["dse", "explore", "--digits", "a"],
        ["dse", "explore", "--vdd", "x"],
        ["campaign", "acquire", "--chaos-shards", "a"],
        ["campaign", "attack", "--grid", "a"],
        ["campaign", "acquire", "--traces", "0"],
        ["campaign", "acquire", "--curve", "NOPE"],
        ["campaign", "acquire", "--chaos", "bogus=1"],
    ], ids=" ".join)
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, argv):
        code = main(argv + ["--dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{argv[0]} error:" in err
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("campaign")
        assert main(TestCampaignVerbs.ACQUIRE + ["--dir", str(directory)]) \
            == 0
        return directory

    @pytest.mark.parametrize("verb, tamper", [
        ("status", lambda m: m["spec"].update(bogus=1)),
        ("attack", lambda m: m["spec"].update(n_traces="2")),
        ("attack", lambda m: m["shards"][0].update(bogus=1)),
    ], ids=["status-spec-extra-key", "attack-spec-str-traces",
            "attack-shard-extra-key"])
    def test_tampered_manifest_exits_1(self, campaign, tmp_path, capsys,
                                       verb, tamper):
        directory = tmp_path / "campaign"
        shutil.copytree(campaign, directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        tamper(manifest)
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["campaign", verb, "--dir", str(directory)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("campaign error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["status", "attack"])
    @pytest.mark.parametrize("tamper", [
        lambda m: dict(m, shards=5),
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "key_bits"},
        lambda m: dict(m, shards=[7]),
        lambda m: dict(m, key_bits=[2]),
        lambda m: dict(m, iteration_slices=[[0, "9"]]),
    ], ids=["int-shards", "list-root", "missing-key-bits",
            "int-shard-record", "key-bit-2", "str-slice-end"])
    def test_tampered_envelope_exits_1(self, campaign, tmp_path, capsys,
                                       verb, tamper):
        """A malformed envelope around the spec (the root object, the
        shard list, the key bits, the iteration slices) is reported
        as one line naming the manifest and the key."""
        directory = tmp_path / "campaign"
        shutil.copytree(campaign, directory)
        manifest_path = directory / "manifest.json"
        manifest_path.write_text(json.dumps(
            tamper(json.loads(manifest_path.read_text()))))
        capsys.readouterr()
        code = main(["campaign", verb, "--dir", str(directory)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("campaign error:")
        assert err.count("\n") == 1
        assert str(manifest_path) in err


class TestProtocolVerbs:
    """`repro protocol run|soak` — resilient sessions from the CLI."""

    def test_run_narrates_sessions(self, capsys):
        assert main(["protocol", "run", "--sessions", "2", "--loss",
                     "0.1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "peeters-hermans" in out
        assert out.count("session") >= 2
        assert "uJ" in out

    def test_run_events_show_the_frame_log(self, capsys):
        assert main(["protocol", "run", "--sessions", "1", "--loss",
                     "0.0", "--events"]) == 0
        out = capsys.readouterr().out
        assert "tx tag R" in out
        assert "concluded" in out

    def test_run_mutual_auth_needs_no_curve(self, capsys):
        assert main(["protocol", "run", "--protocol", "mutual-auth",
                     "--sessions", "1", "--loss", "0.0"]) == 0
        assert "mutual-auth" in capsys.readouterr().out

    def test_soak_clean_exit_zero(self, capsys):
        assert main(["protocol", "soak", "--sessions", "12", "--sweep",
                     "0,0.05", "--workers", "0", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "100.00%" in out

    def test_soak_reports_the_energy_trend(self, capsys):
        assert main(["protocol", "soak", "--sessions", "15", "--sweep",
                     "0,0.1", "--workers", "0", "--quiet"]) == 0
        assert "energy vs loss" in capsys.readouterr().out

    def test_soak_degraded_exit_three(self, capsys):
        # an aggressive sweep point with a tiny epoch budget cannot
        # stay at 100%; with a permissive floor that is "degraded"
        code = main(["protocol", "soak", "--sessions", "8", "--sweep",
                     "0.6", "--workers", "0", "--quiet",
                     "--min-availability", "0"])
        assert code == 3
        assert "DEGRADED" in capsys.readouterr().out

    def test_soak_failed_exit_one_below_floor(self):
        code = main(["protocol", "soak", "--sessions", "8", "--sweep",
                     "0.6", "--workers", "0", "--quiet",
                     "--min-availability", "0.99"])
        assert code == 1

    def test_unknown_curve_fails_cleanly(self, capsys):
        assert main(["protocol", "run", "--curve", "Q-999",
                     "--sessions", "1"]) == 1
        assert "protocol error" in capsys.readouterr().err
