"""Golden JSON of every spec dataclass, pinned byte for byte.

``spec_golden.json`` holds, for two or three instances of each spec
class below, the ``to_dict()`` payload as sorted-key JSON, the
``identity_dict()`` payload the same way, and the ``digest()``, each
where the class had it when the file was recorded.  The fleet-family
specs (``FleetSpec``, ``PowerSoakSpec``, ``AmortizedSpec``) had no
``to_dict`` then; their digest is the one their soak manifests and
trace ids carry.  It was recorded before the classes shared one JSON
codec, so a codec change that moves a payload or a digest fails here.
Key format: ``Class/label``.
"""

import json
from pathlib import Path

import pytest

from repro.adversary.defense import DefenseConfig, defense_config
from repro.adversary.soak import AttackSpec
from repro.campaign.chaos import ChaosConfig
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ShardRecord
from repro.dse.space import DesignSpaceSpec
from repro.obs.alerts import AlertRule, default_rulebook
from repro.protocols.amortized import AmortizedSpec
from repro.protocols.fleet import FleetSpec, PowerSoakSpec
from repro.server.enrollment import EnrollmentSpec
from repro.server.reader import ServerConfig
from repro.server.soak import SoakSpec

GOLDEN = json.loads((Path(__file__).parent / "spec_golden.json").read_text())

FLEET_FAMILY = (FleetSpec, PowerSoakSpec, AmortizedSpec)

SPECS = {
    "CampaignSpec/default": CampaignSpec(n_traces=64),
    "CampaignSpec/keyed": CampaignSpec(
        n_traces=40, shard_size=8, scenario="unprotected", seed=3,
        key=0x1F2E3D4C5B6A79880, max_iterations=2, noise_sigma=12.5),
    "CampaignSpec/toy": CampaignSpec(
        n_traces=9, shard_size=4, scenario="known_randomness", seed=7,
        noise_sigma=0, curve="TOY-B17", digit_size=2,
        dedicated_squarer=True, fetch_overhead=0,
        mux_encoding="unbalanced", clock_gating="data_dependent",
        input_isolation=False, glitch_factor=0.25),
    "ShardRecord/first": ShardRecord(
        index=0, n_traces=16, samples_file="shard-00000.samples.npy",
        aux_file="shard-00000.aux.json", samples_sha256="ab" * 32,
        aux_sha256="cd" * 32, wall_seconds=1.25),
    "ShardRecord/last": ShardRecord(
        index=3, n_traces=5, samples_file="shard-00003.samples.npy",
        aux_file="shard-00003.aux.json", samples_sha256="0" * 64,
        aux_sha256="f" * 64, wall_seconds=0),
    "ChaosConfig/default": ChaosConfig(),
    "ChaosConfig/faulty": ChaosConfig(
        seed=2, crash_rate=0.3, error_rate=0.2, corrupt_rate=0.25,
        slow_seconds=0.5, only_shards=(3, 1, 3)),
    "ChaosConfig/hang": ChaosConfig(seed=9, hang_rate=1.0,
                                    hang_seconds=30, slow_rate=0.1),
    "SoakSpec/default": SoakSpec(enrollment_digest="e" * 64,
                                 store_dir="/srv/fleet"),
    "SoakSpec/adversarial": SoakSpec(
        enrollment_digest="a" * 64, store_dir="fleet", sessions=25,
        cohorts=2, arrival_rate=500, frame_loss=0.0, seed=3,
        capacity=8, admission_queue=4, session_deadline_s=0.5,
        search_mode="uncached", distance_m=1.5, adversarial_fraction=0.25,
        throttle_limit=2, replay_quarantine=True, tag_budget_uj=120.0),
    "ServerConfig/default": ServerConfig(),
    "ServerConfig/tight": ServerConfig(
        capacity=4, admission_queue=2, session_deadline_s=0.25,
        search_mode="uncached", epoch_sessions=10,
        scheduler_window_s=0.0, scheduler_max_batch=1, distance_m=2,
        source_session_limit=3, replay_quarantine=True,
        tag_budget_uj=50.0),
    "EnrollmentSpec/default": EnrollmentSpec(tags=120),
    "EnrollmentSpec/k163": EnrollmentSpec(tags=5, curve="K-163",
                                          shard_size=2, seed=11),
    "AttackSpec/default": AttackSpec(),
    "AttackSpec/flood": AttackSpec(
        adversary="bogus-flood", defense="full", sessions=10, cohorts=1,
        legit_fraction=1.0, arrival_rate=80, frame_loss=0.2, seed=2013,
        distance_m=1.0, budget_cap_uj=75.5, budget_window_s=0.25),
    "DefenseConfig/none": DefenseConfig(),
    "DefenseConfig/full": defense_config("full"),
    "DefenseConfig/custom": DefenseConfig(
        name="custom", budget_cap_uj=10, budget_window_s=2,
        wake_rx_uj=0.0, restart_backoff_scale=1.5, max_session_epochs=7),
    "DesignSpaceSpec/default": DesignSpaceSpec(),
    "DesignSpaceSpec/toy": DesignSpaceSpec(
        digit_sizes=(1, 4), vdd_volts=(1.0,), frequencies_hz=(847.5e3,),
        countermeasures=("full", "none", "no-rpc"), curve="TOY-B17",
        seed=5, whitebox=True, whitebox_traces=12, max_latency_s=None,
        max_area_ge=20000.0, min_security=None,
        objectives=("area_energy", "security")),
    "DesignSpaceSpec/axes": DesignSpaceSpec(
        digit_sizes=(4,), vdd_volts=(1.0,), frequencies_hz=(847500,),
        countermeasures=("full",), defenses=("none", "budget-cap"),
        checkpoint_intervals=(1, 8), backends=("ecc", "simon-aead"),
        curve="TOY-B17",
        objectives=("energy_per_message", "security")),
    "FleetSpec/default": FleetSpec(),
    "FleetSpec/schnorr": FleetSpec(
        protocol="schnorr", sessions=12, seed=3, sweep=(0.0, 0.05),
        duplicate_rate=0.0, reorder_rate=0.1, distance_m=1,
        max_epochs=4, round_deadline_s=0.05, operations_per_day=96),
    "PowerSoakSpec/default": PowerSoakSpec(),
    "PowerSoakSpec/harsh": PowerSoakSpec(
        sessions=8, seed=1, cut_seed=4, cuts=80, mean_on_cycles=600,
        checkpoint_interval=1, randomize_z=False, max_power_cycles=8),
    "AmortizedSpec/default": AmortizedSpec(),
    "AmortizedSpec/hybrid": AmortizedSpec(
        protocol="schnorr", epoch_messages=8, messages=24,
        message_bytes=16, sessions=4, seed=9, sweep=(0.0, 0.1, 0.2),
        vdd=0.9, frequency_hz=4e6, messages_per_day=48,
        erase_keys=False),
    "AlertRule/custom": AlertRule(
        name="shed_spike", series="shed", kind="rate_of_change",
        threshold=3, window_s=1.0, clear_ratio=0.5, sustain=2,
        severity="critical", description="admission shedding spikes"),
    **{f"AlertRule/{rule.name}": rule for rule in default_rulebook()[:2]},
}


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


def _digest(spec):
    if isinstance(spec, FLEET_FAMILY):
        return spec.digest()
    return spec.digest()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(SPECS)


@pytest.mark.parametrize("case", sorted(SPECS))
def test_payloads_and_digest_unchanged(case):
    spec, golden = SPECS[case], GOLDEN[case]
    if "to_dict" in golden:
        assert _dumps(spec.to_dict()) == golden["to_dict"]
    if "identity_dict" in golden:
        assert _dumps(spec.identity_dict()) == golden["identity_dict"]
    if "digest" in golden:
        assert _digest(spec) == golden["digest"]
