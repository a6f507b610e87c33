"""Every row `analyze_space` prices, pinned on small TOY-B17 spaces.

One space per opt-in axis (defense postures, checkpoint intervals,
crypto backends), all three together, an off-grid reference cell and
the degraded ``skip_missing`` path.  Each entry pins the row count,
the front size and the SHA-256 of the sorted-key JSON of
``(rows, front)``: every row id, key and float bit.  The digests were
recorded before the rows of every axis came from one builder; a
change that moves any of them changes ``points.json`` and
``pareto.json`` for the same space.
"""

import hashlib
import json
import os
import shutil

import pytest

from repro.dse import DesignSpaceSpec
from repro.dse.engine import ExplorationEngine, analyze_space
from repro.dse.evaluate import measurement_relpath

BACKENDS = ("ecc", "simon-aead", "sha1-aead", "hybrid:16",
            "hybrid:sha1-aead:4")

BASE = dict(digit_sizes=(1, 4), vdd_volts=(0.8, 1.0),
            frequencies_hz=(100e3, 847.5e3),
            countermeasures=("full", "none"), curve="TOY-B17",
            max_latency_s=5e-3)

ALL_AXES = dict(defenses=("none", "full"), checkpoint_intervals=(1, 8),
                backends=BACKENDS, max_area_ge=6000.0)

SPACES = {
    "plain-ecc": {},
    "defenses": dict(defenses=("none", "budget-cap", "full")),
    "checkpoint-intervals": dict(checkpoint_intervals=(1, 4, 16)),
    "backends": dict(backends=BACKENDS,
                     objectives=("energy_per_message", "security")),
    "all-axes": ALL_AXES,
    "off-grid-reference": dict(digit_sizes=(1, 2)),
}

#: space -> (rows, front rows, sha256 of the sorted-key (rows, front)).
GOLDEN = {
    "plain-ecc": (16, 1, "4c00cde6752edde0545b236e7bfa29cc"
                         "f2a5711cd911aa5b3df02d4a83cde0b1"),
    "defenses": (48, 2, "9cc6f06b97cc72647aa44c8d77b82e52"
                        "4bf99dccad11fc0b558898e188321c8f"),
    "checkpoint-intervals": (48, 1, "54991ea6a1aa3736018c87d14e10691d"
                                    "596f0cc37721235dcfeccdd34bfe4d92"),
    "backends": (56, 1, "bd15c7da7d55788cf02abaee235b3c2c"
                        "cf205f4cd4384b175f988d9d26e83639"),
    "all-axes": (200, 1, "61bd1421b440784c9110af01302122ef"
                         "8f456a5004c5069eaf4fc0b288db5bc2"),
    "off-grid-reference": (16, 1, "910cfc02d47ab4e6d1f799c920650222"
                                  "ce0bb7cab2de10de0ed93a4fef65a232"),
    "skip-missing": (100, 1, "c2a8be87ce1df9770997ee0ad15057cd"
                             "507d3a2bd6da26c494b2e4ccc6467f58"),
}


def make_spec(**overrides) -> DesignSpaceSpec:
    return DesignSpaceSpec(**{**BASE, **overrides})


def fingerprint(rows: list, front: list) -> tuple:
    blob = json.dumps([rows, front], sort_keys=True).encode()
    return len(rows), len(front), hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """One cache holding every cell and engine the spaces price."""
    directory = str(tmp_path_factory.mktemp("dse-rows"))
    union = make_spec(digit_sizes=(1, 2, 4), backends=BACKENDS)
    result = ExplorationEngine(directory, union, workers=1).run()
    assert result.outcome == "clean"
    return directory


@pytest.mark.parametrize("name", sorted(SPACES))
def test_rows_match_the_golden(measured, name):
    rows, front = analyze_space(measured, make_spec(**SPACES[name]))
    assert fingerprint(rows, front) == GOLDEN[name]


def test_skip_missing_rows_match_the_golden(measured, tmp_path):
    """A quarantined grid cell and a quarantined engine drop their rows
    and nothing else."""
    spec = make_spec(**ALL_AXES)
    directory = str(tmp_path / "degraded")
    shutil.copytree(measured, directory)
    cell = next(job for job in spec.grid_jobs()
                if not job.is_reference)
    engine = spec.symmetric_jobs()["sha1-aead"]
    for job in (cell, engine):
        os.remove(os.path.join(
            directory, measurement_relpath(spec.config_digest(job))))
    rows, front = analyze_space(directory, spec, skip_missing=True)
    assert fingerprint(rows, front) == GOLDEN["skip-missing"]
