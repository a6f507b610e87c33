"""The ``protocol amortize`` verb and the DSE ``--backends`` flag."""

import json

import pytest

from repro.cli import EXIT_DEGRADED, EXIT_FAILED, EXIT_OK, main


class TestProtocolAmortize:
    def test_writes_summary_and_exits_clean(self, tmp_path, capsys):
        directory = tmp_path / "amortize"
        code = main(["protocol", "amortize", "--dir", str(directory),
                     "--epoch", "4", "--messages", "8",
                     "--sessions", "2", "--sweep", "0,0.2",
                     "--workers", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "forward-secrecy window" in out
        summary = json.loads(
            (directory / "summary.json").read_text())
        assert summary["epoch_messages"] == 4
        assert len(summary["points"]) == 2

    def test_worker_counts_agree_on_disk(self, tmp_path):
        args = ["protocol", "amortize", "--epoch", "4",
                "--messages", "8", "--sessions", "2",
                "--sweep", "0.1"]
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(args + ["--dir", str(a), "--workers", "1",
                            "--quiet"]) == EXIT_OK
        assert main(args + ["--dir", str(b), "--workers", "2",
                            "--quiet"]) == EXIT_OK
        assert (a / "summary.json").read_bytes() == \
            (b / "summary.json").read_bytes()

    def test_rows_and_degraded_list_print_each_rate_by_its_label(
            self, capsys):
        code = main(["protocol", "amortize", "--epoch", "4",
                     "--messages", "8", "--sessions", "2",
                     "--sweep", "0.1,0.104,0.604", "--workers", "0",
                     "--min-delivery", "0", "--quiet"])
        assert code == EXIT_DEGRADED
        out = capsys.readouterr().out
        rows = out.splitlines()[2:5]
        assert [row[:7] for row in rows] == ["   10% ", " 10.4% ",
                                             " 60.4% "]
        assert "/16 at 60.4%" in out

    def test_bad_backend_is_an_argparse_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["protocol", "amortize", "--backend", "aes-gcm"])
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_curve_fails(self, tmp_path, capsys):
        code = main(["protocol", "amortize",
                     "--dir", str(tmp_path / "x"),
                     "--curve", "NO-SUCH"])
        assert code == EXIT_FAILED
        assert "error" in capsys.readouterr().err


class TestExploreBackends:
    def test_backend_axis_end_to_end(self, tmp_path, capsys):
        directory = str(tmp_path / "space")
        args = ["dse", "explore", "--dir", directory,
                "--curve", "TOY-B17", "--digits", "4",
                "--vdd", "1.0", "--freq", "847500",
                "--countermeasures", "full",
                "--backends", "ecc,simon-aead,hybrid:16",
                "--workers", "1"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "uJ/msg" in out
        # Second run must be pure cache.
        assert main(args) == EXIT_OK
        assert "0 simulated" in capsys.readouterr().out
