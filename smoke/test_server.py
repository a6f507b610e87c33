"""The identification server: fleet enrollment, supervised soaks and
the live ``/metrics`` endpoint.

In ``tests/cli/test_server_cli.py``: re-enrollment as a pure reuse
(``TestEnroll::test_reenroll_reports_reuse``, ``TestEnroll::test_via_main``)
and a tampered enrollment manifest
(``TestSoak::test_via_main_tampered_envelope``).
"""

import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SOAK = "server soak --store {} --dir {} --sessions 10 --cohorts 1 --seed 2013"


def test_enroll_a_10k_tag_fleet(fleet):
    assert "10000 tags over 5 shard(s)" in fleet[1].stdout


def test_live_metrics_endpoint_serves_a_clean_scrape(fleet):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "server", "run", "--store",
         str(fleet[0]), "--sessions", "40", "--loss", "0.1", "--seed", "2013",
         "--metrics-port", "0", "--serve-seconds", "20", "--quiet"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, text=True)
    try:
        url = server.stdout.readline().split()[-1]
        wanted = ("repro_server_sessions_total",
                  "repro_server_energy_uj_total")
        scrape = ""
        for _ in range(40):
            time.sleep(0.5)
            try:
                scrape = urllib.request.urlopen(url).read().decode()
            except OSError:  # a render contended with the simulation
                continue
            if all(name in scrape for name in wanted):
                break
        assert all(name in scrape for name in wanted), scrape
        health = urllib.request.urlopen(url.replace("/metrics", "/healthz"))
        assert "ok" in health.read().decode()
        assert server.wait(timeout=120) == 0
    finally:
        server.kill()
        server.stdout.close()


def test_impossible_deadline_fails_the_acceptance_floor(repro, fleet,
                                                        tmp_path):
    repro(SOAK.format(fleet[0], tmp_path) + " --workers 1 --deadline "
          "0.000001 --min-acceptance 0.9", code=1)


def test_always_crashing_cohort_quarantines(repro, fleet, tmp_path):
    repro(SOAK.format(fleet[0], tmp_path) + " --workers 2 --chaos crash=1.0 "
          "--chaos-seed 0 --min-acceptance 0", code=3)


def test_search_bench_beats_the_linear_wall(bench):
    bench("s1_server_search")
