"""Golden digests for every soak family, plus the soak kernel's contract.

Each soak family's observable outputs are hashed and compared with a
digest table recorded from the per-family implementations that
preceded :mod:`repro.soak`.  The in-memory sweeps (fleet, power,
amortized) are hashed through their payloads, records and rendered
tables; the supervised cohort soaks (server, attack) through
``summary.json``, ``telemetry.json``, ``alerts.json`` and the report
text minus its wall-time and path lines.  In-process and two-worker
runs of a family must hash to the same recorded digest; a crash-chaos
run's report also states its one retried attempt, so it has its own.
A change to the shared fan-out, fold or supervision machinery cannot
move a byte unnoticed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adversary import AttackSpec, run_attack_soak
from repro.campaign.chaos import ChaosConfig
from repro.obs.alerts import ALERTS_NAME
from repro.obs.stream import TELEMETRY_NAME
from repro.protocols.amortized import AmortizedSpec, run_amortized_soak
from repro.protocols.fleet import (FleetSpec, PowerSoakSpec, run_fleet,
                                   run_power_soak)
from repro.server import (EnrollmentSpec, EnrollmentStore, SoakSpec,
                          enroll_fleet, run_soak)

SRC = Path(__file__).resolve().parents[1] / "src"

FLEET = FleetSpec(sessions=6, seed=2013, sweep=(0.0, 0.2))
POWER = PowerSoakSpec(sessions=4, seed=2013)
AMORTIZED = AmortizedSpec(seed=2013, epoch_messages=4, messages=8,
                          sessions=2, sweep=(0.0, 0.2))
ATTACK = AttackSpec(adversary="mixed", defense="full", sessions=8,
                    cohorts=2, legit_fraction=0.3, seed=11)
#: Chaos seeds under which ``crash=0.4`` kills one cohort's first
#: attempt (cohort 0 for the server, cohort 1 for the attack soak).
SERVER_CHAOS = ChaosConfig.parse("crash=0.4", seed=9)
ATTACK_CHAOS = ChaosConfig.parse("crash=0.4", seed=8)

GOLDEN = {
    "fleet":
        "5b4ad905e6dd095f30b429eea0aa1e3404059a083c50fec90685287d22aa62af",
    "power":
        "fa0f1dac29e740ada1d210ef0b2d957359fb0614241f42ef59b403c5602e3a36",
    "amortized":
        "140b380c13f479b9629ef6095b9447fe8da68a3e9eb9f1846f3f8ff9dbff378c",
    "server":
        "3ad4f64ed2bad7c3bbb77a848e486811f2786ba5ec45a55c7511053a9e6e6a94",
    "server-chaos":
        "537334e5a1fa523ca60fe0b675ac20a3434abc40e2a3fb76252fe64632adce33",
    "attack":
        "cbba3ae199a48f293ea5c3fb973e03c38f2db9876d44d3f33930dc4f89a5274b",
    "attack-chaos":
        "99c7579dcc372eb840a2007fe84e5f6bab2602819656b02b18cbd6a9d525b9d1",
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def fleet_digest(workers) -> str:
    report = run_fleet(FLEET, workers=workers)
    return _sha(report.summary(),
                *(p.digest() for p in report.points),
                *(repr(p.records) for p in report.points))


def power_digest(workers) -> str:
    report = run_power_soak(POWER, workers=workers)
    return _sha(json.dumps(report.summary_payload(), sort_keys=True),
                report.summary(), repr(report.records))


def amortized_digest(workers) -> str:
    report = run_amortized_soak(AMORTIZED, workers=workers)
    return _sha(json.dumps(report.summary_payload(), sort_keys=True),
                report.summary(),
                *(repr(p.records) for p in report.points))


def cohort_soak_digest(directory, report) -> str:
    """The three soak files plus the report minus wall time and path."""
    text = [line for line in report.text().splitlines()
            if not line.lstrip().startswith(("wall", "summary"))]
    return _sha(*((Path(directory) / name).read_bytes()
                  for name in ("summary.json", TELEMETRY_NAME,
                               ALERTS_NAME)),
                "\n".join(text))


def server_spec(store_dir) -> SoakSpec:
    store = EnrollmentStore(str(store_dir), verify=False)
    return SoakSpec(enrollment_digest=store.spec.digest(),
                    store_dir=str(store_dir), sessions=30, cohorts=2,
                    frame_loss=0.15, seed=11)


def enroll_golden_fleet(directory) -> None:
    report = enroll_fleet(directory,
                          EnrollmentSpec(tags=300, shard_size=100, seed=5,
                                         curve="TOY-B17"),
                          workers=1)
    assert report.complete


@pytest.fixture(scope="module")
def golden_fleet(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-fleet")
    enroll_golden_fleet(directory)
    return directory


class TestInMemorySweeps:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_fleet(self, workers):
        assert fleet_digest(workers) == GOLDEN["fleet"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_power(self, workers):
        assert power_digest(workers) == GOLDEN["power"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_amortized(self, workers):
        assert amortized_digest(workers) == GOLDEN["amortized"]


class TestCohortSoaks:
    @pytest.mark.parametrize("workers,chaos,key", [
        (1, None, "server"), (2, SERVER_CHAOS, "server-chaos")])
    def test_server(self, tmp_path, golden_fleet, workers, chaos, key):
        report = run_soak(tmp_path, server_spec(golden_fleet),
                          workers=workers, chaos=chaos)
        assert report.outcome == "clean"
        assert report.retried_attempts == (chaos is not None)
        assert cohort_soak_digest(tmp_path, report) == GOLDEN[key]

    @pytest.mark.parametrize("workers,chaos,key", [
        (1, None, "attack"), (2, ATTACK_CHAOS, "attack-chaos")])
    def test_attack(self, tmp_path, workers, chaos, key):
        report = run_attack_soak(tmp_path, ATTACK, workers=workers,
                                 chaos=chaos)
        assert report.outcome == "clean"
        assert report.retried_attempts == (chaos is not None)
        assert cohort_soak_digest(tmp_path, report) == GOLDEN[key]


def _square(x):
    return x * x


@pytest.mark.parametrize("workers", [0, 2])
def test_fan_out_returns_results_in_job_order(workers):
    from repro.soak import fan_out

    calls = []
    jobs = [(i,) for i in range(7)]
    results = fan_out(_square, jobs, workers,
                      lambda done, total: calls.append((done, total)))
    assert results == [i * i for i in range(7)]
    assert calls == [(done, 7) for done in range(1, 8)]


def test_fleet_import_leaves_campaign_unloaded():
    """``import repro.protocols.fleet`` is what the protocol-soak
    benchmark's setup time measures; the supervised-soak half of the
    kernel must not drag the campaign engine into it."""
    code = ("import sys, repro.protocols.fleet; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.campaign')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
