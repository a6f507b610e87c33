"""Fault-tolerant acquisition: under seeded crashes, errors and
corruption a campaign completes byte-identical to a clean one.

The degraded lifecycle (exit 3, quarantine in ``status``, refused and
``--allow-partial`` attacks, ``doctor --clear``, re-acquisition) is
``tests/cli/test_cli.py::TestFailureLifecycle``.
"""

import json

ACQUIRE = ("campaign acquire --dir {} --traces 24 --shard-size 6 "
           "--workers 2 --scenario unprotected --seed 7 --bits 2")


def shard_digests(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    return {r["index"]: (r["samples_sha256"], r["aux_sha256"])
            for r in manifest["shards"]}


def test_chaos_run_is_byte_identical_to_the_reference(repro, tmp_path):
    clean, chaos = tmp_path / "clean", tmp_path / "chaos"
    repro(ACQUIRE.format(clean) + " --quiet")
    repro(ACQUIRE.format(chaos) + " --chaos crash=0.3,error=0.2,corrupt=0.25"
          " --chaos-seed 2 --shard-timeout 120 --max-attempts 8")
    assert len(shard_digests(clean)) == 4
    assert shard_digests(chaos) == shard_digests(clean)
    assert list(chaos.glob("*.tmp")) == []
