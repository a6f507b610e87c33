"""Tests for the Peeters-Hermans identification protocol (Figure 2)."""

import random

import pytest

from repro.ec import AffinePoint, NIST_K163
from repro.protocols import (
    NonceConsumedError,
    NoncePendingError,
    PeetersHermansReader,
    PeetersHermansTag,
    run_identification,
)

RING = NIST_K163.scalar_ring


def make_pair(rng, identity=7):
    reader = PeetersHermansReader(NIST_K163, RING.random_scalar(rng))
    tag = PeetersHermansTag(NIST_K163, RING.random_scalar(rng), reader.public)
    reader.register(identity, tag.identity_point)
    return tag, reader


class TestCorrectness:
    def test_honest_run_accepts(self):
        rng = random.Random(1)
        tag, reader = make_pair(rng, identity=42)
        result = run_identification(tag, reader, rng)
        assert result.accepted
        assert result.identity == 42

    def test_multiple_sessions_accept(self):
        rng = random.Random(2)
        tag, reader = make_pair(rng)
        for _ in range(3):
            assert run_identification(tag, reader, rng).accepted

    def test_unregistered_tag_rejected(self):
        rng = random.Random(3)
        reader = PeetersHermansReader(NIST_K163, RING.random_scalar(rng))
        stranger = PeetersHermansTag(NIST_K163, RING.random_scalar(rng),
                                     reader.public)
        result = run_identification(stranger, reader, rng)
        assert not result.accepted
        assert result.identity is None

    def test_wrong_reader_key_rejects(self):
        """A tag provisioned for reader A does not identify to reader B."""
        rng = random.Random(4)
        tag, reader_a = make_pair(rng)
        reader_b = PeetersHermansReader(NIST_K163, RING.random_scalar(rng))
        reader_b.register(7, tag.identity_point)
        result = run_identification(tag, reader_b, rng)
        assert not result.accepted

    def test_multi_tag_database(self):
        rng = random.Random(5)
        reader = PeetersHermansReader(NIST_K163, RING.random_scalar(rng))
        tags = {}
        for identity in range(3):
            tag = PeetersHermansTag(NIST_K163, RING.random_scalar(rng),
                                    reader.public)
            reader.register(identity, tag.identity_point)
            tags[identity] = tag
        for identity, tag in tags.items():
            assert run_identification(tag, reader, rng).identity == identity


class TestPaperWorkload:
    def test_tag_does_two_pm_and_one_modmul(self):
        """Section 4: 'the main operation on the tag is two point
        multiplications and one modular multiplication'."""
        rng = random.Random(6)
        tag, reader = make_pair(rng)
        result = run_identification(tag, reader, rng)
        assert result.tag_ops.point_multiplications == 2
        assert result.tag_ops.modular_multiplications == 1

    def test_reader_carries_the_heavy_load(self):
        """The asymmetry rule: the reader computes more than the tag."""
        rng = random.Random(7)
        tag, reader = make_pair(rng)
        result = run_identification(tag, reader, rng)
        assert result.reader_ops.point_multiplications > \
            result.tag_ops.point_multiplications

    def test_three_message_flow(self):
        rng = random.Random(8)
        tag, reader = make_pair(rng)
        result = run_identification(tag, reader, rng)
        assert result.transcript.rounds == 3
        assert [m.label for m in result.transcript.messages] == ["R", "e", "s"]

    def test_communication_accounting(self):
        rng = random.Random(9)
        tag, reader = make_pair(rng)
        result = run_identification(tag, reader, rng)
        point_bits = NIST_K163.field.m + 1
        scalar_bits = NIST_K163.order.bit_length()
        assert result.transcript.total_bits == point_bits + 2 * scalar_bits
        assert result.tag_ops.tx_bits == point_bits + scalar_bits
        assert result.tag_ops.rx_bits == scalar_bits


class TestRobustness:
    def test_respond_before_commit(self):
        rng = random.Random(10)
        tag, __ = make_pair(rng)
        with pytest.raises(RuntimeError):
            tag.respond(5, rng)

    def test_nonce_is_single_use(self):
        rng = random.Random(11)
        tag, __ = make_pair(rng)
        tag.commit(rng)
        tag.respond(5, rng)
        with pytest.raises(RuntimeError):
            tag.respond(6, rng)

    def test_bad_challenge_rejected(self):
        rng = random.Random(12)
        tag, __ = make_pair(rng)
        tag.commit(rng)
        with pytest.raises(ValueError):
            tag.respond(0, rng)

    def test_invalid_commitment_rejected_by_reader(self):
        rng = random.Random(13)
        __, reader = make_pair(rng)
        assert reader.identify(AffinePoint(3, 4), 5, 6) is None
        assert reader.identify(AffinePoint.infinity(), 5, 6) is None

    def test_construction_validation(self):
        rng = random.Random(14)
        reader = PeetersHermansReader(NIST_K163, RING.random_scalar(rng))
        with pytest.raises(ValueError):
            PeetersHermansTag(NIST_K163, 0, reader.public)
        with pytest.raises(ValueError):
            PeetersHermansTag(NIST_K163, 5, AffinePoint(1, 2))
        with pytest.raises(ValueError):
            PeetersHermansReader(NIST_K163, 0)
        with pytest.raises(ValueError):
            reader.register(1, AffinePoint(1, 2))

    def test_replayed_response_fails(self):
        """Replaying (R, s) against a fresh challenge fails."""
        rng = random.Random(15)
        tag, reader = make_pair(rng, identity=3)
        commitment = tag.commit(rng)
        e1 = reader.challenge(rng)
        s1 = tag.respond(e1, rng)
        assert reader.identify(commitment, e1, s1) == 3
        e2 = reader.challenge(rng)
        assert reader.identify(commitment, e2, s1) is None


class TestScalarRangeValidation:
    """The reader rejects out-of-range wire scalars before any point
    arithmetic (non-canonical encodings must not verify)."""

    def make_session(self, seed=16):
        rng = random.Random(seed)
        tag, reader = make_pair(rng, identity=9)
        commitment = tag.commit(rng)
        e = reader.challenge(rng)
        s = tag.respond(e, rng)
        return reader, commitment, e, s

    def test_honest_values_still_accept(self):
        reader, commitment, e, s = self.make_session()
        assert reader.identify(commitment, e, s) == 9

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bad_s_rejected(self, bad):
        reader, commitment, e, s = self.make_session()
        assert reader.identify(commitment, e, bad) is None
        assert reader.identify(commitment, e, RING.n) is None

    @pytest.mark.parametrize("bad", [0, -5])
    def test_bad_e_rejected(self, bad):
        reader, commitment, e, s = self.make_session()
        assert reader.identify(commitment, bad, s) is None
        assert reader.identify(commitment, RING.n + 3, s) is None

    def test_non_canonical_encoding_of_valid_transcript_rejected(self):
        """s + n verifies the same equation mod n; accepting it would
        let a replayed transcript slip past exact-match replay caches."""
        reader, commitment, e, s = self.make_session()
        assert reader.identify(commitment, e, s + RING.n) is None
        assert reader.identify(commitment, e + RING.n, s) is None

    def test_rejection_costs_no_point_multiplications(self):
        reader, commitment, e, s = self.make_session()
        before = reader.ops.point_multiplications
        reader.identify(commitment, e, RING.n)
        assert reader.ops.point_multiplications == before


class TestNonceLifecycle:
    """The strict single-use nonce contract the session layer relies on."""

    def test_second_respond_raises_typed_error(self):
        rng = random.Random(17)
        tag, reader = make_pair(rng)
        tag.commit(rng)
        tag.respond(5, rng)
        with pytest.raises(NonceConsumedError):
            tag.respond(5, rng)

    def test_s_never_emitted_twice_under_one_r(self):
        """Pin the invariant directly: for any one commit, at most one
        s ever leaves the tag — even a byte-identical retransmitted
        challenge cannot extract a second response."""
        rng = random.Random(18)
        tag, reader = make_pair(rng)
        emitted = []
        for _ in range(5):
            tag.commit(rng)
            e = reader.challenge(rng)
            emitted.append(tag.respond(e, rng))
            for retry in range(3):  # replayed challenge, same epoch
                with pytest.raises(NonceConsumedError):
                    tag.respond(e, rng)
        assert len(set(emitted)) == len(emitted)

    def test_commit_requires_explicit_abort(self):
        rng = random.Random(19)
        tag, __ = make_pair(rng)
        tag.commit(rng)
        with pytest.raises(NoncePendingError):
            tag.commit(rng)
        tag.abort()
        commitment = tag.commit(rng)
        assert commitment is not None

    def test_restore_rearms_a_committed_nonce(self):
        """A fresh tag (RAM lost in a power cut) re-armed with the
        committed r answers exactly as the tag that committed it."""
        rng = random.Random(21)
        tag, reader = make_pair(random.Random(22))
        resumed, __ = make_pair(random.Random(22))
        commitment = tag.commit(random.Random(5))
        e = reader.challenge(rng)
        resumed.restore(RING.random_scalar(random.Random(5)))
        s = resumed.respond(e, rng)
        assert s == tag.respond(e, rng)
        assert reader.identify(commitment, e, s) == 7
        with pytest.raises(NonceConsumedError):
            resumed.respond(e, rng)

    def test_restore_keeps_the_single_use_rules(self):
        tag, __ = make_pair(random.Random(23))
        for bad in (0, RING.n):
            with pytest.raises(ValueError):
                tag.restore(bad)
        tag.restore(3)
        with pytest.raises(NoncePendingError):
            tag.restore(3)
        with pytest.raises(NoncePendingError):
            tag.commit(random.Random(6))

    def test_fresh_commits_give_fresh_responses(self):
        """Epoch restarts (the session layer's loss recovery) are safe:
        same challenge, different r, different s."""
        rng = random.Random(20)
        tag, reader = make_pair(rng)
        e = reader.challenge(rng)
        s_values = set()
        for _ in range(4):
            tag.commit(rng)
            s_values.add(tag.respond(e, rng))
        assert len(s_values) == 4
