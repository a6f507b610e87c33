"""Golden text for ``campaign status`` on a clean and a degraded campaign.

Two TOY-B17 campaigns are acquired in process (``--workers 1``): a
clean one, and one whose shard 1 fails on every attempt (the
smoke-chaos recipe: ``--chaos error=1.0 --chaos-shards 1
--max-attempts 2``), so it ends with one shard quarantined and two
failure events logged.  The status text is compared line for line
with text recorded before the view was rendered straight from the
store and the failure log, with the campaign directory masked as
``<DIR>``.  The ``acquisition wall:`` line carries wall-clock figures,
so it is checked apart: its shape, and its figures against the
manifest's per-shard ``wall_seconds``.
"""

import json
import re

import pytest

from repro.cli import cmd_campaign_doctor, cmd_campaign_status, main

ACQUIRE = ["campaign", "acquire", "--curve", "TOY-B17", "--traces", "8",
           "--shard-size", "4", "--workers", "1", "--scenario",
           "unprotected", "--seed", "7", "--bits", "2", "--quiet"]
BROKEN = ["--chaos", "error=1.0", "--chaos-shards", "1",
          "--max-attempts", "2"]

GOLDEN = {
    "clean": [
        "campaign <DIR>",
        "  scenario: unprotected  curve: TOY-B17  seed: 7",
        "  traces: 8/8 (2/2 shards, shard size 4)",
        "  coverage: 8/8 traces (2/2 shards, 100.0%)",
        "  missing shards: none — complete",
    ],
    "degraded": [
        "campaign <DIR>",
        "  scenario: unprotected  curve: TOY-B17  seed: 7",
        "  traces: 4/8 (1/2 shards, shard size 4)",
        "  coverage: 4/8 traces (1/2 shards, 50.0%); missing shards [1]",
        "  missing shards: [1]",
        "  quarantined shards: [1] (release with `campaign doctor --clear`)",
        "  failures: deterministic=2 (1 retried, 1 quarantined) — "
        "<DIR>/failures.jsonl",
    ],
}

WALL_LINE = re.compile(
    r"^  acquisition wall: (\d+\.\d{2})s total, (\d+\.\d) traces/s per "
    r"worker \(per-shard (\d+\.\d{2})-(\d+\.\d{2})s\)$")
TALLY = re.compile(r"\((\d+) retried, (\d+) quarantined\)")


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    root = tmp_path_factory.mktemp("status-golden")
    clean, degraded = str(root / "clean"), str(root / "degraded")
    assert main(ACQUIRE + ["--dir", clean]) == 0
    assert main(ACQUIRE + BROKEN + ["--dir", degraded]) == 3
    return {"clean": clean, "degraded": degraded}


def _split(text: str, directory: str) -> tuple:
    """(masked lines without the wall line, the wall lines)."""
    lines = text.replace(directory, "<DIR>").splitlines()
    wall = [line for line in lines
            if line.startswith("  acquisition wall:")]
    return [line for line in lines if line not in wall], wall


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_status_text_matches_golden(campaigns, name):
    lines, _ = _split(cmd_campaign_status(campaigns[name]),
                      campaigns[name])
    assert lines == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wall_line_sums_the_manifest(campaigns, name):
    directory = campaigns[name]
    _, wall = _split(cmd_campaign_status(directory), directory)
    assert len(wall) == 1
    match = WALL_LINE.match(wall[0])
    assert match, wall[0]
    with open(f"{directory}/manifest.json", encoding="utf-8") as f:
        shards = json.load(f)["shards"]
    walls = [shard["wall_seconds"] for shard in shards]
    traces = sum(shard["n_traces"] for shard in shards)
    total = sum(walls)
    assert match.group(1) == f"{total:.2f}"
    assert match.group(2) == f"{traces / total:.1f}"
    assert match.group(3) == f"{min(walls):.2f}"
    assert match.group(4) == f"{max(walls):.2f}"


def test_status_tally_matches_doctor(campaigns):
    directory = campaigns["degraded"]
    status = TALLY.findall(cmd_campaign_status(directory))
    doctor = TALLY.findall(cmd_campaign_doctor(directory))
    assert status == doctor == [("1", "1")]


def test_clean_campaign_has_no_failure_tally(campaigns):
    assert TALLY.findall(cmd_campaign_status(campaigns["clean"])) == []


def test_status_without_manifest(tmp_path):
    directory = str(tmp_path / "empty")
    assert cmd_campaign_status(directory) == \
        f"campaign {directory}: no manifest (nothing acquired yet)"
