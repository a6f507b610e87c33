"""Tests for the ``attack`` CLI group: narratives, soaks, exit codes."""

import json

import pytest

from repro.adversary.soak import SUMMARY_NAME
from repro.cli import (
    EXIT_DEGRADED,
    EXIT_FAILED,
    EXIT_OK,
    cmd_attack_run,
    main,
)


class TestAttackRun:
    def test_narrates_every_posture(self):
        text = cmd_attack_run(adversary="amplification", sessions=2,
                              seed=7)
        for name in ("none", "budget-cap", "wake-gating", "backoff",
                     "full"):
            assert name in text
        assert "uJ" in text

    def test_via_main(self, capsys):
        code = main(["attack", "run", "--adversary", "replay-flood",
                     "--defense", "none", "--defense", "full",
                     "--sessions", "2", "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "replay-flood" in out
        assert "full" in out

    def test_prints_the_loss_rate_exactly(self, capsys):
        code = main(["attack", "run", "--loss", "0.104", "--sessions", "1",
                     "--adversary", "legit"])
        assert code == EXIT_OK
        assert "10.4% frame loss" in capsys.readouterr().out

    def test_unknown_adversary_fails(self, capsys):
        code = main(["attack", "run", "--adversary", "evil-twin"])
        assert code == EXIT_FAILED
        assert "unknown adversary" in capsys.readouterr().err

    def test_unknown_defense_fails(self, capsys):
        code = main(["attack", "run", "--defense", "belt"])
        assert code == EXIT_FAILED
        assert "unknown defense" in capsys.readouterr().err


class TestAttackSoak:
    def test_clean_soak(self, tmp_path, capsys):
        directory = tmp_path / "soak"
        code = main(["attack", "soak", "--dir", str(directory),
                     "--sessions", "8", "--cohorts", "2",
                     "--defense", "full", "--seed", "11",
                     "--workers", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "attack soak" in out
        summary = json.loads((directory / SUMMARY_NAME).read_text())
        assert summary["outcome"] == "clean"

    def test_legit_floor_fails_the_soak(self, tmp_path, capsys):
        code = main(["attack", "soak", "--dir", str(tmp_path / "f"),
                     "--sessions", "8", "--cohorts", "1",
                     "--defense", "none", "--legit-fraction", "0.5",
                     "--seed", "11", "--workers", "1",
                     "--min-legit-success", "1.01"])
        assert code == EXIT_FAILED
        assert "FAILED" in capsys.readouterr().out

    def test_chaos_quarantine_degrades(self, tmp_path, capsys):
        code = main(["attack", "soak", "--dir", str(tmp_path / "q"),
                     "--sessions", "6", "--cohorts", "1",
                     "--seed", "3", "--workers", "2",
                     "--chaos", "crash=1.0"])
        assert code == EXIT_DEGRADED
        assert "degraded" in capsys.readouterr().out

    def test_invalid_spec_fails(self, tmp_path, capsys):
        code = main(["attack", "soak", "--dir", str(tmp_path / "x"),
                     "--sessions", "0"])
        assert code == EXIT_FAILED
        assert "attack error" in capsys.readouterr().err

    def test_budget_override_flows_through(self, tmp_path):
        directory = tmp_path / "o"
        code = main(["attack", "soak", "--dir", str(directory),
                     "--sessions", "6", "--cohorts", "1",
                     "--defense", "budget-cap", "--budget-cap", "60",
                     "--budget-window", "0.25", "--seed", "11",
                     "--workers", "1"])
        assert code == EXIT_OK
        summary = json.loads((directory / SUMMARY_NAME).read_text())
        assert summary["spec"]["budget_cap_uj"] == 60.0
        assert summary["totals"]["peak_window_uj"] <= 60.0
