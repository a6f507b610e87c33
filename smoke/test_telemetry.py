"""An undefended flood, watched from telemetry alone: the stock
rulebook fires on it and stays silent on a clean baseline."""

import pytest

FLOOD = ("attack soak --dir {} --adversary bogus-flood --defense none "
         "--sessions 30 --cohorts 2 --legit-fraction {} --seed 2013 "
         "--workers 1")


@pytest.fixture(scope="module")
def flood(repro, tmp_path_factory):
    directory = tmp_path_factory.mktemp("flood")
    repro(FLOOD.format(directory, 0.2))
    return directory


def test_depletion_alert_fires_on_the_flood(repro, flood):
    out = repro(f"obs alerts --dir {flood}", code=3).stdout
    assert "energy_session_p99" in out


def test_tail_renders_the_live_series_and_flight_dumps(repro, flood):
    assert "session_uj" in repro(f"obs tail --dir {flood}").stdout


def test_clean_baseline_stays_silent(repro, tmp_path):
    repro(FLOOD.format(tmp_path, 1.0))
    out = repro(f"obs alerts --dir {tmp_path}").stdout
    assert "every rule stayed silent" in out


def test_detection_bench_separates_floods_from_the_baseline(bench):
    bench("t1_detection")
