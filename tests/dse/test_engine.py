"""Engine tests on the TOY-B17 smoke space.

The smoke space is chosen so the constrained optimum is unique for
the same reasons as in the paper's K-163 space: d = 1 breaks the
latency deadline, 0.8 V opens the fault-attack door, and dropping the
countermeasures breaks the security floor — leaving exactly the d = 4
/ 1.0 V / full-countermeasures point on the front.
"""

import json
import os

import pytest

from repro.campaign import RetryPolicy
from repro.dse import (
    DesignSpaceSpec,
    ExplorationEngine,
    MissingMeasurementError,
    PARETO_NAME,
    POINTS_NAME,
    analyze_space,
    load_measurement,
    measurement_relpath,
    run_measurement_attempt,
)

SMOKE = DesignSpaceSpec(
    digit_sizes=(1, 4),
    vdd_volts=(0.8, 1.0),
    frequencies_hz=(847.5e3,),
    countermeasures=("full", "none"),
    curve="TOY-B17",
    max_latency_s=0.005,
    min_security=1.0,
)

FAST = RetryPolicy(base_delay=0.0, jitter=0.0)

OPTIMUM = "d4-full-1V-847.5kHz"


def read(directory, name):
    with open(os.path.join(directory, name), "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def explored(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("dse-smoke"))
    result = ExplorationEngine(directory, SMOKE, workers=1).run()
    return directory, result


class TestSmokeSpace:
    def test_every_cell_simulated_once(self, explored):
        _, result = explored
        assert result.evaluated == 4
        assert result.cached == 0
        assert result.outcome == "clean"
        assert len(result.rows) == SMOKE.grid_size == 8

    def test_unique_constrained_optimum(self, explored):
        _, result = explored
        assert [row["id"] for row in result.front] == [OPTIMUM]
        optimum = result.front[0]
        assert optimum["pareto"] and optimum["feasible"]
        assert optimum["security"] == 1.0

    def test_infeasible_rows_name_their_violations(self, explored):
        _, result = explored
        by_id = {row["id"]: row for row in result.rows}
        assert "latency" in by_id["d1-full-1V-847.5kHz"]["violations"]
        assert "security" in by_id["d4-none-1V-847.5kHz"]["violations"]
        assert "security" in by_id["d4-full-0.8V-847.5kHz"]["violations"]
        assert "fault-attack" in by_id["d4-full-0.8V-847.5kHz"]["security_open"]

    def test_summary_names_the_front(self, explored):
        _, result = explored
        assert OPTIMUM in result.summary()

    def test_serialized_files_match_the_result(self, explored):
        directory, result = explored
        points = json.loads(read(directory, POINTS_NAME))
        pareto = json.loads(read(directory, PARETO_NAME))
        assert points["rows"] == result.rows
        assert pareto["front"] == result.front
        assert pareto["spec_digest"] == SMOKE.digest()
        assert pareto["constraints"]["max_latency_s"] == 0.005

    def test_rerun_is_pure_cache_and_byte_identical(self, explored):
        directory, _ = explored
        before = read(directory, PARETO_NAME), read(directory, POINTS_NAME)
        result = ExplorationEngine(directory, SMOKE, workers=1).run()
        assert result.evaluated == 0
        assert result.cached == 4
        assert (read(directory, PARETO_NAME),
                read(directory, POINTS_NAME)) == before

    def test_worker_count_does_not_change_the_bytes(self, explored,
                                                    tmp_path):
        directory, _ = explored
        parallel = str(tmp_path / "parallel")
        result = ExplorationEngine(parallel, SMOKE, workers=2,
                                   retry_policy=FAST).run()
        assert result.outcome == "clean"
        assert read(parallel, PARETO_NAME) == read(directory, PARETO_NAME)
        assert read(parallel, POINTS_NAME) == read(directory, POINTS_NAME)


class TestCache:
    def test_tampered_measurement_heals(self, explored, tmp_path):
        directory, _ = explored
        digest = SMOKE.config_digest(SMOKE.reference_job())
        relpath = measurement_relpath(digest)
        source = os.path.join(directory, relpath)
        clone = str(tmp_path / "clone")
        os.makedirs(os.path.dirname(os.path.join(clone, relpath)))
        with open(source, "rb") as f:
            payload = json.load(f)
        payload["cycles"] = "corrupted"
        with open(os.path.join(clone, relpath), "w") as f:
            json.dump(payload, f)
        assert load_measurement(clone, digest) is None
        cached, pending = ExplorationEngine(clone, SMOKE).plan()
        assert SMOKE.reference_job().index in pending

    def test_strict_analysis_requires_the_reference(self, tmp_path):
        with pytest.raises(MissingMeasurementError, match="reference"):
            analyze_space(str(tmp_path), SMOKE)


def fail_job_one(spec, directory, job_index):
    if job_index == 1:
        raise RuntimeError("injected measurement fault")
    return run_measurement_attempt(spec, directory, job_index)


def fail_reference_job(spec, directory, job_index):
    if job_index == SMOKE.reference_job().index:
        raise RuntimeError("injected measurement fault")
    return run_measurement_attempt(spec, directory, job_index)


class TestDegradedPath:
    def test_quarantined_reference_is_named(self, tmp_path):
        engine = ExplorationEngine(str(tmp_path / "no-reference"), SMOKE,
                                   workers=1, retry_policy=FAST,
                                   task=fail_reference_job)
        with pytest.raises(MissingMeasurementError, match="quarantined"):
            engine.run()

    def test_persistent_failure_quarantines_the_cell(self, tmp_path):
        directory = str(tmp_path / "degraded")
        engine = ExplorationEngine(directory, SMOKE, workers=1,
                                   retry_policy=FAST, task=fail_job_one)
        result = engine.run()
        assert result.quarantined == [1]
        assert result.outcome == "degraded"
        # The d1-none cell produced no rows; everything else did.
        assert len(result.rows) == 6
        assert [row["id"] for row in result.front] == [OPTIMUM]

        # A re-run holds the quarantined cell without re-attempting it.
        again = ExplorationEngine(directory, SMOKE, workers=1,
                                  retry_policy=FAST,
                                  task=fail_job_one).run()
        assert again.quarantined == [1]
        assert again.evaluated == 0
        assert again.cached == 3
