"""Trace store: roundtrip, resume bookkeeping, corruption rejection."""

import os

import numpy as np
import pytest

from repro.campaign import (
    AcquisitionEngine,
    CampaignSpec,
    CorruptShardError,
    TraceStore,
    acquire_in_memory,
    derive_rng,
    derive_seed,
    file_digest,
    random_protocol_point,
)
from repro.power import PowerTraceSimulator

from .conftest import UNPROTECTED_SPEC


class TestRoundtrip:
    def test_manifest_survives_reload(self, unprotected_store):
        reloaded = TraceStore(unprotected_store.directory).load()
        assert reloaded.spec == unprotected_store.spec
        assert reloaded.iteration_slices == unprotected_store.iteration_slices
        assert reloaded.key_bits == unprotected_store.key_bits
        assert [r.to_dict() for r in reloaded.shard_records] == \
            [r.to_dict() for r in unprotected_store.shard_records]
        assert reloaded.is_complete

    def test_samples_are_memory_mapped(self, unprotected_store):
        samples = unprotected_store.open_samples(0)
        assert isinstance(samples, np.memmap)
        assert samples.shape == (10, samples.shape[1])

    def test_mmap_window_matches_full_read(self, unprotected_store):
        start, end = unprotected_store.iteration_slices[1]
        full = np.asarray(unprotected_store.open_samples(0))
        views = list(unprotected_store.iter_shards(columns=(start, end)))
        np.testing.assert_array_equal(views[0].samples,
                                      full[:, start:end])

    def test_aux_roundtrip(self, unprotected_store):
        points, z = unprotected_store.read_aux(0)
        assert len(points) == 10
        assert z is None  # unprotected scenario records no randomness
        curve = unprotected_store.spec.build_coprocessor().domain.curve
        assert all(curve.is_on_curve(p) for p in points)

    def test_known_randomness_is_recorded(self, known_z_store):
        points, z = known_z_store.read_aux(0)
        assert z is not None and len(z) == len(points)
        assert all(v > 0 for v in z)

    def test_short_last_shard(self, known_z_store):
        # 13 traces in shards of 5 -> 5, 5, 3.
        counts = [r.n_traces for r in known_z_store.shard_records]
        assert counts == [5, 5, 3]
        assert known_z_store.n_traces_on_disk == 13

    def test_max_traces_truncates_stream(self, unprotected_store):
        views = list(unprotected_store.iter_shards(max_traces=12))
        assert sum(v.n_traces for v in views) == 12

    def test_in_memory_campaign_equals_a_one_shard_store(self, tmp_path):
        """One acquisition loop: in RAM on a shard's own RNG streams, it
        measures the shard's traces bit for bit."""
        spec = CampaignSpec(n_traces=5, shard_size=5,
                            scenario="known_randomness", max_iterations=2,
                            seed=21, curve="TOY-B17")
        store = AcquisitionEngine(str(tmp_path), spec, workers=1).run()
        cop = spec.build_coprocessor()
        point_rng = derive_rng(spec.seed, "points", 0)
        points = [random_protocol_point(cop.domain, point_rng)
                  for _ in range(spec.n_traces)]
        sim = PowerTraceSimulator(noise_sigma=spec.noise_sigma,
                                  seed=derive_seed(spec.seed, "noise", 0))
        traces = acquire_in_memory(
            cop, sim, spec.resolve_key(), points,
            rng=derive_rng(spec.seed, "z", 0), scenario=spec.scenario,
            max_iterations=spec.max_iterations)
        [on_disk] = store.iter_shards()
        [in_ram] = traces.iter_shards()
        np.testing.assert_array_equal(in_ram.samples, on_disk.samples)
        assert in_ram.points == on_disk.points
        assert in_ram.z_values == on_disk.z_values
        assert traces.iteration_slices == store.iteration_slices
        assert traces.key_bits == store.key_bits
        assert traces.provenance() == store.provenance()
        assert traces.coverage().is_complete


class TestSpecGuard:
    def test_refuses_different_spec_in_same_directory(self, unprotected_store):
        other = CampaignSpec(n_traces=99, scenario="protected", seed=1)
        with pytest.raises(ValueError, match="different spec"):
            TraceStore(unprotected_store.directory).initialize(other)

    def test_adopts_matching_spec(self, unprotected_store):
        store = TraceStore(unprotected_store.directory)
        store.initialize(UNPROTECTED_SPEC)
        assert store.is_complete


class TestResumeBookkeeping:
    def _fresh_store(self, tmp_path):
        spec = CampaignSpec(n_traces=12, shard_size=4,
                            scenario="unprotected", max_iterations=2,
                            seed=3)
        engine = AcquisitionEngine(str(tmp_path), spec, workers=1)
        return engine, engine.run()

    def test_deleted_shard_counts_missing(self, tmp_path):
        engine, store = self._fresh_store(tmp_path)
        victim = store.shard_records[1]
        os.remove(os.path.join(store.directory, victim.samples_file))
        reloaded = TraceStore(store.directory).load()
        assert reloaded.missing_shards() == [1]

    def test_resume_completes_only_missing(self, tmp_path):
        engine, store = self._fresh_store(tmp_path)
        digests_before = [r.samples_sha256 for r in store.shard_records]
        victim = store.shard_records[2]
        os.remove(os.path.join(store.directory, victim.samples_file))

        spec = store.spec
        resumed_engine = AcquisitionEngine(store.directory, spec, workers=1)
        resumed = resumed_engine.run()
        assert resumed.is_complete
        # Only the missing shard was re-acquired...
        assert resumed_engine.metrics.acquired_shards == 1
        assert resumed_engine.metrics.skipped_shards == 2
        # ...and the campaign is bit-for-bit what it was.
        assert [r.samples_sha256 for r in resumed.shard_records] == \
            digests_before


class TestCorruption:
    def _corrupt(self, store, record):
        path = os.path.join(store.directory, record.samples_file)
        with open(path, "r+b") as f:
            f.seek(130)
            f.write(b"\x13\x37\x13\x37")

    def test_reader_rejects_digest_mismatch(self, tmp_path):
        spec = CampaignSpec(n_traces=6, shard_size=3,
                            scenario="unprotected", max_iterations=2,
                            seed=4)
        store = AcquisitionEngine(str(tmp_path), spec, workers=1).run()
        self._corrupt(store, store.shard_records[0])
        with pytest.raises(CorruptShardError):
            store.open_samples(0, verify=True)
        with pytest.raises(CorruptShardError):
            store.verify_all()
        # Unverified mmap open still works (the fast path trusts disk).
        store.open_samples(0, verify=False)

    def test_resume_reacquires_corrupted_shard(self, tmp_path):
        spec = CampaignSpec(n_traces=6, shard_size=3,
                            scenario="unprotected", max_iterations=2,
                            seed=5)
        store = AcquisitionEngine(str(tmp_path), spec, workers=1).run()
        good = [r.samples_sha256 for r in store.shard_records]
        self._corrupt(store, store.shard_records[1])
        assert store.missing_shards(verify_digests=True) == [1]

        resumed = AcquisitionEngine(store.directory, spec, workers=1).run()
        resumed.verify_all()
        assert [r.samples_sha256 for r in resumed.shard_records] == good


class TestCoverage:
    def test_complete_store(self, unprotected_store):
        coverage = unprotected_store.coverage()
        assert coverage.is_complete
        assert coverage.fraction == 1.0
        assert coverage.missing_shards == ()
        assert coverage.completed_shards == (0, 1, 2)
        assert "24/24 traces" in coverage.render()
        assert "missing" not in coverage.render()

    def test_partial_store(self, tmp_path):
        spec = CampaignSpec(n_traces=8, shard_size=4,
                            scenario="unprotected", max_iterations=2,
                            seed=6)
        store = AcquisitionEngine(str(tmp_path), spec, workers=1).run()
        os.remove(os.path.join(store.directory,
                               store.shard_records[0].samples_file))
        coverage = TraceStore(store.directory).load().coverage()
        assert not coverage.is_complete
        assert coverage.missing_shards == (0,)
        assert coverage.fraction == pytest.approx(0.5)
        assert "missing shards [0]" in coverage.render()


class TestDigest:
    def test_file_digest_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "blob.bin"
        payload = os.urandom(3 << 20)  # spans multiple 1 MiB chunks
        path.write_bytes(payload)
        assert file_digest(str(path)) == hashlib.sha256(payload).hexdigest()
