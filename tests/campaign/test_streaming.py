"""Streaming attacks must agree with the batch oracle — exactly.

Every test materializes the shared fixture store into an in-RAM
``TraceSet`` and checks the shard-at-a-time attacks reproduce the batch
statistics of ``tests/sca/batch_oracle.py`` to float precision, not
just the same verdicts.
"""

import numpy as np
import pytest

from repro.campaign import (
    AcquisitionEngine,
    CampaignSpec,
    OnlineMoments,
    PartialStoreError,
    StreamingCpa,
    StreamingDpa,
    TraceStore,
    streaming_average_trace,
    streaming_spa,
)
from repro.sca import transition_spa

from ..sca.batch_oracle import (
    correlation,
    difference_of_means,
    load_trace_set,
    recover_bits,
)

N_BITS = 2


def _decisions_match(streamed, batch):
    assert len(streamed.decisions) == len(batch.decisions)
    for s, b in zip(streamed.decisions, batch.decisions):
        assert s.bit_index == b.bit_index
        assert s.chosen == b.chosen
        assert s.true_bit == b.true_bit
        assert s.statistic_zero == pytest.approx(b.statistic_zero, abs=1e-9)
        assert s.statistic_one == pytest.approx(b.statistic_one, abs=1e-9)


class TestOnlineMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        block_a, block_b = rng.normal(size=(7, 5)), rng.normal(size=(9, 5))
        acc = OnlineMoments(5)
        acc.update(block_a)
        acc.update(block_b)
        full = np.vstack([block_a, block_b])
        np.testing.assert_allclose(acc.mean(), full.mean(axis=0))
        np.testing.assert_allclose(acc.variance(), full.var(axis=0, ddof=1))

    def test_masked_update_partitions_columns(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(10, 3))
        mask = rng.random(size=(10, 3)) > 0.5
        acc = OnlineMoments(3)
        acc.update(block, mask)
        for col in range(3):
            members = block[mask[:, col], col]
            assert acc.count[col] == members.size
            if members.size:
                assert acc.mean()[col] == pytest.approx(members.mean())

    def test_empty_columns_are_nan_not_crash(self):
        acc = OnlineMoments(2)
        acc.update(np.ones((4, 2)), np.zeros((4, 2), dtype=bool))
        assert np.isnan(acc.mean()).all()


class TestDpaEquivalence:
    def test_unprotected(self, unprotected_store):
        traces = load_trace_set(unprotected_store)
        batch = recover_bits(traces, N_BITS, difference_of_means)
        streamed = StreamingDpa(unprotected_store).recover_bits(N_BITS)
        _decisions_match(streamed, batch)

    def test_known_randomness(self, known_z_store):
        traces = load_trace_set(known_z_store)
        assert traces.known_randomness is not None
        batch = recover_bits(traces, N_BITS, difference_of_means,
                             traces.known_randomness)
        streamed = StreamingDpa(
            known_z_store, use_stored_randomness=True
        ).recover_bits(N_BITS)
        _decisions_match(streamed, batch)

    def test_max_traces_matches_batch_subset(self, unprotected_store):
        subset = load_trace_set(unprotected_store, max_traces=15)
        batch = recover_bits(subset, N_BITS, difference_of_means)
        streamed = StreamingDpa(unprotected_store).recover_bits(
            N_BITS, max_traces=15
        )
        _decisions_match(streamed, batch)

    def test_stored_randomness_requires_known_z(self, unprotected_store):
        attack = StreamingDpa(unprotected_store, use_stored_randomness=True)
        with pytest.raises(ValueError, match="no recorded randomness"):
            attack.recover_bits(1)

    def test_rejects_out_of_range_bits(self, unprotected_store):
        with pytest.raises(ValueError):
            StreamingDpa(unprotected_store).recover_bits(0)
        with pytest.raises(ValueError):
            StreamingDpa(unprotected_store).recover_bits(
                len(unprotected_store.iteration_slices) + 1
            )


class TestDisclosureGrid:
    """A disclosure grid point must be a prefix the traces can back."""

    @pytest.mark.parametrize("grid", [[10, 25], [0, 10], [-3]],
                             ids=["above", "zero", "negative"])
    def test_store_refuses_a_point_it_cannot_back(self, unprotected_store,
                                                  grid):
        bad = [n for n in grid if not 1 <= n <= 24][0]
        with pytest.raises(ValueError,
                           match=rf"grid point {bad} .* 24 trace"):
            StreamingDpa(unprotected_store).traces_to_disclosure(N_BITS,
                                                                 grid)

    def test_in_ram_source_refuses_a_point_it_cannot_back(
            self, unprotected_store):
        traces = load_trace_set(unprotected_store, max_traces=20)
        with pytest.raises(ValueError, match=r"grid point 21 .* 20 trace"):
            StreamingCpa(traces).traces_to_disclosure(N_BITS, [10, 21])

    def test_the_whole_campaign_is_a_grid_point(self, unprotected_store):
        traces = load_trace_set(unprotected_store)
        for source in (unprotected_store, traces):
            needed = StreamingDpa(source).traces_to_disclosure(N_BITS, [24])
            assert needed in (None, 24)


class TestCpaEquivalence:
    def test_unprotected(self, unprotected_store):
        traces = load_trace_set(unprotected_store)
        batch = recover_bits(traces, N_BITS, correlation)
        streamed = StreamingCpa(unprotected_store).recover_bits(N_BITS)
        _decisions_match(streamed, batch)

    def test_known_randomness(self, known_z_store):
        traces = load_trace_set(known_z_store)
        batch = recover_bits(traces, N_BITS, correlation,
                             traces.known_randomness)
        streamed = StreamingCpa(
            known_z_store, use_stored_randomness=True
        ).recover_bits(N_BITS)
        _decisions_match(streamed, batch)


class TestSpaAndAverage:
    def test_average_trace_matches_batch_mean(self, unprotected_store):
        traces = load_trace_set(unprotected_store)
        np.testing.assert_allclose(
            streaming_average_trace(unprotected_store),
            traces.samples.mean(axis=0),
        )

    def test_streaming_spa_matches_batch(self, unprotected_store):
        traces = load_trace_set(unprotected_store)
        batch = transition_spa(
            traces.samples.mean(axis=0),
            list(traces.iteration_slices),
            list(traces.key_bits),
        )
        streamed = streaming_spa(unprotected_store)
        assert streamed.recovered_bits == batch.recovered_bits
        assert streamed.true_bits == batch.true_bits


@pytest.fixture(scope="module")
def partial_store(tmp_path_factory):
    """A 3-shard campaign with the middle shard lost (12 -> 8 traces)."""
    directory = tmp_path_factory.mktemp("campaign-partial")
    spec = CampaignSpec(n_traces=12, shard_size=4, scenario="unprotected",
                        max_iterations=3, seed=13, noise_sigma=38.0)
    store = AcquisitionEngine(str(directory), spec, workers=1).run()
    store.forget_shards([1])
    store.save_manifest()
    return TraceStore(str(directory)).load()


class TestPartialStores:
    """Attacks must refuse incomplete stores unless told otherwise —
    and then report exactly which shards backed the statistics."""

    def test_attacks_refuse_partial_stores_by_default(self, partial_store):
        with pytest.raises(PartialStoreError, match="allow_partial"):
            StreamingDpa(partial_store)
        with pytest.raises(PartialStoreError):
            StreamingCpa(partial_store)
        with pytest.raises(PartialStoreError):
            streaming_average_trace(partial_store)
        with pytest.raises(PartialStoreError):
            streaming_spa(partial_store)

    def test_complete_store_needs_no_flag(self, unprotected_store):
        StreamingDpa(unprotected_store)
        streaming_spa(unprotected_store)

    def test_partial_dpa_matches_batch_over_surviving_shards(
            self, partial_store):
        # The exact-equivalence contract holds on the partial store
        # too: streaming over shards {0, 2} == batch over shards {0, 2}.
        traces = load_trace_set(partial_store)
        assert traces.n_traces == 8
        batch = recover_bits(traces, N_BITS, difference_of_means)
        attack = StreamingDpa(partial_store, allow_partial=True)
        streamed = attack.recover_bits(N_BITS)
        _decisions_match(streamed, batch)

    def test_provenance_names_the_backing_shards(self, partial_store):
        attack = StreamingDpa(partial_store, allow_partial=True)
        assert attack.last_provenance is None
        attack.recover_bits(N_BITS)
        provenance = attack.last_provenance
        assert provenance.partial
        assert provenance.shard_indices == (0, 2)
        assert provenance.n_traces == 8
        assert provenance.n_traces_planned == 12
        assert "PARTIAL" in provenance.describe()

    def test_provenance_on_complete_store(self, unprotected_store):
        provenance = unprotected_store.provenance()
        assert not provenance.partial
        assert provenance.shard_indices == (0, 1, 2)
        assert provenance.n_traces == 24
        assert "PARTIAL" not in provenance.describe()

    def test_provenance_respects_max_traces(self, unprotected_store):
        provenance = unprotected_store.provenance(max_traces=15)
        assert provenance.n_traces == 15
        assert provenance.shard_indices == (0, 1)
