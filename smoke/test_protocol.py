"""``protocol run|soak``: resilient sessions over the lossy channel.

The degraded exit 3 of a hopeless sweep point is
``tests/cli/test_cli.py::TestProtocolVerbs::test_soak_degraded_exit_three``.
"""


def test_single_session_narrated(repro):
    out = repro("protocol run --sessions 2 --loss 0.1 --seed 2013").stdout
    assert "ACCEPTED" in out


def test_soak_a_small_sweep_to_full_availability(repro):
    out = repro("protocol soak --sessions 40 --sweep 0,0.05,0.1 --seed 2013 "
                "--min-availability 0.9 --quiet").stdout
    assert "availability: 100% at every loss rate" in out
