"""Tests for key generation."""

import random

from repro.ec import (
    NIST_K163,
    generate_keypair,
    montgomery_ladder,
)


class TestKeyGeneration:
    def test_public_key_matches_private(self):
        rng = random.Random(1)
        kp = generate_keypair(NIST_K163, rng)
        expected = montgomery_ladder(
            NIST_K163.curve, kp.private, NIST_K163.generator, randomize_z=False
        )
        assert kp.public == expected

    def test_private_in_range(self):
        rng = random.Random(2)
        for _ in range(5):
            kp = generate_keypair(NIST_K163, rng)
            assert 1 <= kp.private < NIST_K163.order

    def test_repr_hides_private_key(self):
        rng = random.Random(3)
        kp = generate_keypair(NIST_K163, rng)
        assert hex(kp.private) not in repr(kp)
        assert format(kp.private, "x") not in repr(kp).lower()
