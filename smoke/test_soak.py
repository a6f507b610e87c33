"""The soak determinism contract, one case per soak family: one worker,
then more (seeded worker crashes where the soak is supervised, another
cut seed for power) must write byte-identical files.  20% loss may drop
an amortized straggler past its retry budget, so exit 3 (degraded,
above the floor) is in-contract there."""

import pytest

CHAOS = "--workers 4 --chaos crash=0.3 --chaos-seed 1"


@pytest.mark.parametrize("soak, many, files, codes, expect", [
    ("server soak --store {fleet} --sessions 60 --cohorts 4 --loss 0.15 "
     "--seed 2013", CHAOS, ["summary.json"], {0}, None),
    ("attack soak --sessions 30 --cohorts 4 --defense full "
     "--legit-fraction 0.25 --seed 2013 --min-legit-success 0.9", CHAOS,
     ["summary.json"], {0}, None),
    ("attack soak --adversary bogus-flood --defense none --sessions 30 "
     "--cohorts 2 --legit-fraction 0.2 --seed 2013", CHAOS,
     ["telemetry.json", "alerts.json", "summary.json"], {0}, None),
    ("power soak --sessions 8 --seed 2013", "--workers 3 --cut-seed 99",
     ["summary.json"], {0}, None),
    ("protocol amortize --epoch 8 --messages 24 --sessions 4 "
     "--sweep 0,0.1,0.2", "--workers 4 --quiet", ["summary.json"], {0, 3},
     "amortization: pays"),
], ids=["server", "adversary", "telemetry", "intermittent", "backends"])
def test_one_worker_and_more_write_byte_identical_files(
        repro, fleet, tmp_path, soak, many, files, codes, expect):
    soak = soak.format(fleet=fleet[0])
    one = repro(f"{soak} --dir {tmp_path / 'one'} --workers 1", code=None)
    more = repro(f"{soak} --dir {tmp_path / 'many'} {many}", code=None)
    assert {one.returncode, more.returncode} <= codes, one.stderr + more.stderr
    assert expect is None or expect in one.stdout
    for name in files:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "many" / name).read_bytes(), name
