"""A tiny campaign: parallel acquisition, a resume that is a no-op and
an integrity-checked streaming attack.

A tampered manifest is ``tests/cli/test_cli.py::TestBadInput``
(``test_tampered_manifest_exits_1``, ``test_tampered_envelope_exits_1``).
"""

import pytest

ACQUIRE = ("campaign acquire --dir {} --traces 64 --shard-size 16 "
           "--workers 2 --scenario unprotected --seed 7 --bits 2")


@pytest.fixture(scope="module")
def campaign(repro, tmp_path_factory):
    directory = tmp_path_factory.mktemp("campaign")
    repro(ACQUIRE.format(directory))
    return directory


def test_resume_is_a_noop(repro, campaign):
    assert "+4 resumed" in repro(ACQUIRE.format(campaign)).stdout


def test_status(repro, campaign):
    repro(f"campaign status --dir {campaign}")


def test_attack(repro, campaign):
    out = repro(f"campaign attack --dir {campaign} --attack dpa --bits 2 "
                "--verify").stdout
    assert "verdict: key bits RECOVERED" in out
