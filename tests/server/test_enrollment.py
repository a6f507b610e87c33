"""Tests for sharded fleet enrollment and the read-back store."""

import json
import os

import pytest

from repro.campaign.chaos import ChaosConfig
from repro.ec.curves import TOY_B17
from repro.server import (
    EnrollmentError,
    EnrollmentSpec,
    EnrollmentStore,
    ShardedTagDatabase,
    enroll_fleet,
)
from repro.server.enrollment import MANIFEST_NAME, enroll_shard


class TestSpec:
    def test_digest_round_trip(self):
        spec = EnrollmentSpec(tags=500, shard_size=128, seed=9)
        again = EnrollmentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_varies(self):
        a = EnrollmentSpec(tags=500, seed=9)
        assert a.digest() != EnrollmentSpec(tags=501, seed=9).digest()
        assert a.digest() != EnrollmentSpec(tags=500, seed=10).digest()

    def test_layout(self):
        spec = EnrollmentSpec(tags=200, shard_size=64)
        assert spec.num_shards == 4
        assert [spec.shard_count(i) for i in range(4)] == [64, 64, 64, 8]

    def test_secrets_consecutive_and_nonzero(self):
        spec = EnrollmentSpec(tags=200, seed=5)
        nonzero = TOY_B17.order - 1
        for i in range(5):
            secret = spec.secret_for(i)
            assert 1 <= secret <= nonzero
        assert spec.secret_for(1) == \
            1 + (spec.secret_for(0) - 1 + 1) % nonzero

    def test_canonical_identity_wraps_at_group_order(self):
        spec = EnrollmentSpec(tags=200)
        nonzero = TOY_B17.order - 1
        assert spec.canonical_identity(5) == 5
        assert spec.canonical_identity(nonzero + 5) == 5

    def test_validation(self):
        with pytest.raises(EnrollmentError):
            EnrollmentSpec(tags=0)
        with pytest.raises(EnrollmentError):
            EnrollmentSpec(tags=10, shard_size=0)
        with pytest.raises(EnrollmentError):
            EnrollmentSpec(tags=10, schema_version=99)


class TestEnrollFleet:
    def test_points_match_secrets(self, fleet_store, fleet_spec):
        domain = fleet_spec.domain()
        for identity in (0, 1, 63, 64, 199):
            expected = domain.curve.multiply_naive(
                fleet_spec.secret_for(identity), domain.generator)
            assert fleet_store.point(identity) == expected

    def test_reenroll_reuses_every_shard(self, fleet_dir, fleet_spec):
        report = enroll_fleet(fleet_dir, fleet_spec, workers=1)
        assert report.complete
        assert report.shards_built == 0
        assert report.shards_reused == fleet_spec.num_shards

    def test_refuses_directory_of_other_fleet(self, fleet_dir):
        other = EnrollmentSpec(tags=200, shard_size=64, seed=6)
        with pytest.raises(EnrollmentError, match="different fleet"):
            enroll_fleet(fleet_dir, other, workers=1)

    def test_rebuilds_tampered_shard(self, tmp_path, fleet_spec):
        spec = EnrollmentSpec(tags=100, shard_size=32, seed=5)
        enroll_fleet(tmp_path, spec, workers=1)
        victim = tmp_path / spec.shard_filename(1)
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        report = enroll_fleet(tmp_path, spec, workers=1)
        assert report.complete
        assert report.shards_built == 1
        assert report.shards_reused == spec.num_shards - 1
        EnrollmentStore(tmp_path).verify()

    def test_shards_are_deterministic(self, tmp_path, fleet_spec,
                                      fleet_dir):
        other_dir = tmp_path / "again"
        enroll_fleet(other_dir, fleet_spec, workers=1)
        for index in range(fleet_spec.num_shards):
            name = fleet_spec.shard_filename(index)
            assert (other_dir / name).read_bytes() == \
                (fleet_dir / name).read_bytes()

    def test_chaos_corrupt_is_caught_and_retried(self, tmp_path):
        spec = EnrollmentSpec(tags=60, shard_size=20, seed=5)
        chaos = ChaosConfig.parse("corrupt=0.4", seed=1)
        report = enroll_fleet(tmp_path, spec, workers=2, chaos=chaos)
        assert report.complete
        assert report.retried_attempts > 0
        store = EnrollmentStore(tmp_path)
        store.verify()
        assert len(store) == 60

    def test_shard_index_bounds(self, tmp_path, fleet_spec):
        with pytest.raises(EnrollmentError):
            enroll_shard(fleet_spec, str(tmp_path), fleet_spec.num_shards)


class TestEnrollmentStore:
    def test_requires_manifest(self, tmp_path):
        with pytest.raises(EnrollmentError, match="manifest"):
            EnrollmentStore(tmp_path)

    def test_verify_detects_tampering(self, tmp_path):
        spec = EnrollmentSpec(tags=40, shard_size=20, seed=5)
        enroll_fleet(tmp_path, spec, workers=1)
        victim = tmp_path / spec.shard_filename(0)
        raw = bytearray(victim.read_bytes())
        raw[3] ^= 0x01
        victim.write_bytes(bytes(raw))
        with pytest.raises(EnrollmentError, match="digest mismatch"):
            EnrollmentStore(tmp_path)
        # verify=False defers; an explicit verify() still catches it.
        store = EnrollmentStore(tmp_path, verify=False)
        with pytest.raises(EnrollmentError, match="digest mismatch"):
            store.verify()

    def test_detects_missing_shard(self, tmp_path):
        spec = EnrollmentSpec(tags=40, shard_size=20, seed=5)
        enroll_fleet(tmp_path, spec, workers=1)
        os.unlink(tmp_path / spec.shard_filename(1))
        with pytest.raises(EnrollmentError, match="missing"):
            EnrollmentStore(tmp_path)

    def test_detects_noncontiguous_manifest(self, tmp_path):
        spec = EnrollmentSpec(tags=40, shard_size=20, seed=5)
        enroll_fleet(tmp_path, spec, workers=1)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["shards"][0]
        path.write_text(json.dumps(manifest))
        with pytest.raises(EnrollmentError, match="contiguous"):
            EnrollmentStore(tmp_path, verify=False)

    def test_record_bounds(self, fleet_store):
        with pytest.raises(EnrollmentError):
            fleet_store.record(-1)
        with pytest.raises(EnrollmentError):
            fleet_store.record(len(fleet_store))

    def test_iter_shards_covers_fleet(self, fleet_store, fleet_spec):
        total = 0
        for first, data in fleet_store.iter_shards():
            assert first == total
            total += len(data) // fleet_store.record_width
        assert total == fleet_spec.tags


class TestShardedTagDatabase:
    def test_lookup_returns_canonical_identity(self, fleet_store,
                                               fleet_spec):
        db = ShardedTagDatabase(fleet_store)
        assert len(db) == fleet_spec.tags
        for identity in (0, 77, 199):
            assert db.lookup(fleet_store.point(identity)) == \
                fleet_spec.canonical_identity(identity)

    def test_lookup_miss(self, fleet_store, fleet_spec):
        db = ShardedTagDatabase(fleet_store)
        domain = fleet_spec.domain()
        # A point no enrolled secret maps to: secrets are consecutive
        # from the base, so fleet_spec.tags steps past the last one.
        secret = 1 + (fleet_spec.base_secret() - 1 + fleet_spec.tags) \
            % (domain.order - 1)
        stranger = domain.curve.multiply_naive(secret, domain.generator)
        assert db.lookup(stranger) is None

    def test_infinity_never_matches(self, fleet_store):
        from repro.ec.point import AffinePoint
        db = ShardedTagDatabase(fleet_store)
        assert db.lookup(AffinePoint.infinity()) is None

    def test_enroll_refused(self, fleet_store):
        db = ShardedTagDatabase(fleet_store)
        with pytest.raises(EnrollmentError, match="immutable"):
            db.enroll(0, fleet_store.point(0))

    def test_drives_the_sync_reader(self, fleet_store, fleet_spec):
        """The TagDatabase seam end-to-end: the protocol-layer reader
        identifies a fleet tag against the sharded store unchanged."""
        import random

        from repro.protocols.peeters_hermans import (
            PeetersHermansReader,
            PeetersHermansTag,
        )

        domain = fleet_spec.domain()
        db = ShardedTagDatabase(fleet_store)
        reader = PeetersHermansReader(
            domain, fleet_spec.reader_secret(), database=db)
        identity = 150
        tag = PeetersHermansTag(domain, fleet_spec.secret_for(identity),
                                reader.public)
        rng = random.Random(42)
        commitment = tag.commit(rng)
        challenge = reader.challenge(rng)
        response = tag.respond(challenge, rng)
        found = reader.identify(commitment, challenge, response)
        assert found == fleet_spec.canonical_identity(identity)
