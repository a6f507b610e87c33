"""Tests for DPA and CPA in the three Section 7 scenarios.

The attacks are the streaming ones, run on in-RAM campaigns; each is
also pinned to the batch oracle (``batch_oracle.py``).
"""

import numpy as np
import pytest

from repro.campaign import StreamingCpa, StreamingDpa

from . import batch_oracle


def _decisions_match(streamed, batch):
    assert len(streamed.decisions) == len(batch.decisions)
    for s, b in zip(streamed.decisions, batch.decisions):
        assert (s.bit_index, s.chosen, s.true_bit) == \
            (b.bit_index, b.chosen, b.true_bit)
        assert s.statistic_zero == pytest.approx(b.statistic_zero, rel=1e-9)
        assert s.statistic_one == pytest.approx(b.statistic_one, rel=1e-9)


class TestUnprotectedScenario:
    """Countermeasure off: the attack must work."""

    def test_dpa_recovers_bits(self, unprotected_campaign):
        traces = unprotected_campaign
        result = StreamingDpa(traces).recover_bits(2)
        assert result.success
        assert result.recovered_bits == traces.key_bits[:2]

    def test_cpa_recovers_bits_with_fewer_traces(self, unprotected_campaign):
        result = StreamingCpa(unprotected_campaign).recover_bits(
            2, max_traces=60)
        assert result.success

    def test_decision_margins_grow_with_traces(self, unprotected_campaign):
        dpa = StreamingDpa(unprotected_campaign)
        small = dpa.recover_bits(1, max_traces=60).decisions[0].margin
        large = dpa.recover_bits(1).decisions[0].margin
        assert large > small

    def test_traces_to_disclosure_within_paper_band(self, unprotected_campaign):
        """Succeeds somewhere at/below a couple hundred traces."""
        needed = StreamingDpa(unprotected_campaign).traces_to_disclosure(
            2, grid=[60, 120, 240]
        )
        assert needed is not None
        assert needed <= 240


@pytest.mark.slow
class TestKnownRandomnessScenario:
    """White-box: randomization on but Z known -> the attack still works,
    validating its soundness (Section 7)."""

    def test_dpa_succeeds_with_known_z(self, known_randomness_campaign):
        result = StreamingDpa(known_randomness_campaign,
                              use_stored_randomness=True).recover_bits(2)
        assert result.success

    def test_same_traces_fail_without_z(self, known_randomness_campaign):
        """The identical measurements are useless without the mask.

        Six bits are attacked so a lucky coin-flip success (the
        statistics degenerate to noise without Z) is implausible.
        """
        result = StreamingDpa(known_randomness_campaign).recover_bits(6)
        assert not result.significant_success()


@pytest.mark.slow
class TestProtectedScenario:
    """Countermeasure on, randomness secret: the attack must fail."""

    def test_dpa_fails(self, protected_campaign):
        result = StreamingDpa(protected_campaign).recover_bits(3)
        assert not result.significant_success()
        # Statistics sit at the max-over-cycles noise floor.
        assert all(p < 6.0 for p in result.peak_statistics)

    def test_cpa_fails(self, protected_campaign):
        result = StreamingCpa(protected_campaign).recover_bits(3)
        assert not result.significant_success(
            threshold=4.5 / np.sqrt(protected_campaign.n_traces)
        )

    def test_traces_to_disclosure_returns_none(self, protected_campaign):
        needed = StreamingDpa(protected_campaign).traces_to_disclosure(
            3, grid=[120, 240])
        assert needed is None


class TestAgainstTheBatchOracle:
    """The streamed statistics equal the batch formulas on RAM sources."""

    @pytest.mark.parametrize("attack, distinguisher", [
        (StreamingDpa, batch_oracle.difference_of_means),
        (StreamingCpa, batch_oracle.correlation),
    ], ids=["dom", "cpa"])
    def test_unprotected(self, unprotected_campaign, attack, distinguisher):
        streamed = attack(unprotected_campaign).recover_bits(3)
        batch = batch_oracle.recover_bits(unprotected_campaign, 3,
                                          distinguisher)
        _decisions_match(streamed, batch)

    @pytest.mark.slow
    @pytest.mark.parametrize("attack, distinguisher", [
        (StreamingDpa, batch_oracle.difference_of_means),
        (StreamingCpa, batch_oracle.correlation),
    ], ids=["dom", "cpa"])
    def test_known_randomness(self, known_randomness_campaign, attack,
                              distinguisher):
        traces = known_randomness_campaign
        streamed = attack(traces, use_stored_randomness=True).recover_bits(2)
        batch = batch_oracle.recover_bits(traces, 2, distinguisher,
                                          traces.known_randomness)
        _decisions_match(streamed, batch)


class TestInterfaces:
    def test_bad_nbits(self, unprotected_campaign):
        with pytest.raises(ValueError):
            StreamingDpa(unprotected_campaign).recover_bits(0)
        with pytest.raises(ValueError):
            StreamingDpa(unprotected_campaign).recover_bits(99)

    def test_min_partition_validation(self, unprotected_campaign):
        with pytest.raises(ValueError):
            StreamingDpa(unprotected_campaign, min_partition=0)

    def test_decision_records_truth(self, unprotected_campaign):
        traces = unprotected_campaign
        result = StreamingDpa(traces).recover_bits(1, max_traces=60)
        decision = result.decisions[0]
        assert decision.true_bit == traces.key_bits[0]
        assert decision.chosen in (0, 1)
        assert decision.margin >= 0
