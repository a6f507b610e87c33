"""Traced runs: each report must hold its span taxonomy and metric
families, and the ladder's simulated hot path must stay within 20% of
the checked-in baseline."""

import json
from pathlib import Path

import pytest

BASELINE = Path(__file__).resolve().parents[1] / "results/obs_baseline"


@pytest.fixture(scope="module")
def traced_campaign(repro, tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs-campaign")
    repro(f"campaign acquire --dir {directory} --curve TOY-B17 --traces 24 "
          "--shard-size 6 --workers 2 --seed 7 --quiet --obs")
    return directory


def test_report_gates_on_required_spans_and_metrics(repro, traced_campaign):
    out = repro(
        f"obs report --dir {traced_campaign} --json --require-spans "
        "campaign.acquire,campaign.plan,shard,trace,ladder.step "
        "--require-metrics repro_campaign_energy_uj_total,"
        "repro_campaign_traces_total,repro_arch_pointmult_cycles,"
        "repro_arch_ladder_step_cycles,repro_arch_gf2m_mults_per_pointmult"
    ).stdout
    assert json.loads(out)["total_uj"] > 0


def test_ladder_hot_path_within_20_percent_of_the_baseline(repro,
                                                           traced_campaign):
    repro(f"obs diff {BASELINE / 'metrics.json'} {traced_campaign} "
          "--filter repro_arch_*cycles* "
          "--filter repro_arch_gf2m_mults_per_pointmult "
          "--filter repro_obs_span_uj_total --max-regression 20")


@pytest.mark.parametrize("soak, spans, metrics", [
    ("protocol soak --sessions 8 --sweep 0,0.2 --workers 0 --seed 5 --quiet "
     "--obs-dir {dir}", "protocol.soak,soak.point,protocol.session",
     "repro_protocol_sessions_total,repro_protocol_retransmissions_total,"
     "repro_channel_frames_total"),
    ("attack soak --dir {dir} --adversary mixed --defense full --sessions 12 "
     "--cohorts 2 --legit-fraction 0.3 --seed 11 --workers 1 --obs",
     "adversary.session", "repro_adversary_sessions_total,"
     "repro_adversary_energy_uj_total,repro_channel_frames_total"),
    ("server soak --store {fleet} --dir {dir} --sessions 30 --cohorts 2 "
     "--loss 0.15 --seed 11 --workers 1 --obs",
     "server.session,server.accept,server.search",
     "repro_server_sessions_total,repro_server_energy_uj_total,"
     "repro_server_scalarmult_batches_total,repro_channel_frames_total"),
], ids=["protocol", "attack", "server"])
def test_traced_soak_report_gates_on_spans_and_metrics(repro, tmp_path, soak,
                                                       spans, metrics):
    fleet = tmp_path / "fleet"
    if "{fleet}" in soak:
        repro(f"server enroll --dir {fleet} --tags 300 --shard-size 100 "
              "--seed 5 --workers 1")
    repro(soak.format(dir=tmp_path / "soak", fleet=fleet))
    repro(f"obs report --dir {tmp_path / 'soak'} --require-spans {spans} "
          f"--require-metrics {metrics}")
