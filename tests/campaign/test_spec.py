"""CampaignSpec: validation, serialization, deterministic derivation."""

import pytest

from repro.campaign import CampaignSpec, derive_rng, derive_seed


class TestValidation:
    def test_rejects_bad_scenario(self):
        with pytest.raises(ValueError):
            CampaignSpec(n_traces=10, scenario="sidechannel")

    def test_rejects_empty_campaign(self):
        with pytest.raises(ValueError):
            CampaignSpec(n_traces=0)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            CampaignSpec(n_traces=10, shard_size=0)

    def test_rejects_unknown_curve(self):
        with pytest.raises(ValueError, match="unknown curve 'P-256'"):
            CampaignSpec(n_traces=10, curve="P-256")

    def test_rejects_future_schema(self):
        with pytest.raises(ValueError):
            CampaignSpec(n_traces=10, schema_version=999)


class TestSharding:
    def test_shard_count_and_sizes(self):
        spec = CampaignSpec(n_traces=23, shard_size=10)
        assert spec.n_shards == 3
        assert [spec.shard_trace_count(i) for i in range(3)] == [10, 10, 3]

    def test_exact_multiple(self):
        spec = CampaignSpec(n_traces=20, shard_size=10)
        assert spec.n_shards == 2
        assert spec.shard_trace_count(1) == 10


class TestSerialization:
    def test_roundtrip(self):
        spec = CampaignSpec(n_traces=100, shard_size=7,
                            scenario="known_randomness", seed=42,
                            key=0x1234, max_iterations=5, noise_sigma=12.0)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_dict_is_json_plain(self):
        import json

        spec = CampaignSpec(n_traces=10, key=1 << 160)
        json.dumps(spec.to_dict())  # raises if anything non-serializable

    def test_scenario_implies_randomize_z(self):
        assert not CampaignSpec(n_traces=1,
                                scenario="unprotected").randomize_z
        assert CampaignSpec(n_traces=1, scenario="protected").randomize_z


class TestDerivation:
    def test_streams_are_stable_and_distinct(self):
        a = derive_seed(7, "points", 3)
        assert a == derive_seed(7, "points", 3)
        assert a != derive_seed(7, "points", 4)
        assert a != derive_seed(7, "noise", 3)
        assert a != derive_seed(8, "points", 3)

    def test_rng_streams_reproduce(self):
        assert derive_rng(1, "z", 0).random() == derive_rng(1, "z", 0).random()

    def test_key_derivation_is_stable(self):
        spec = CampaignSpec(n_traces=1, seed=5)
        assert spec.resolve_key() == spec.resolve_key()
        assert spec.resolve_key() != CampaignSpec(n_traces=1,
                                                  seed=6).resolve_key()

    def test_explicit_key_wins(self):
        assert CampaignSpec(n_traces=1, key=99).resolve_key() == 99
