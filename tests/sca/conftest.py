"""Shared fixtures for the side-channel tests.

Campaigns are session-scoped, small and held in RAM: the unit tests
check attack *behaviour* (succeeds/fails in the right scenario); the
paper-scale trace counts live in the benchmarks.
"""

import random

import pytest

from repro.arch import CoprocessorConfig, EccCoprocessor
from repro.campaign import acquire_in_memory, random_protocol_point
from repro.power import PowerTraceSimulator

#: Noise level used across the SCA tests (matches the benches).
NOISE_SIGMA = 38.0


@pytest.fixture(scope="session")
def secret_key():
    return EccCoprocessor().domain.scalar_ring.random_scalar(random.Random(1234))


@pytest.fixture(scope="session")
def attack_points():
    domain = EccCoprocessor().domain
    rng = random.Random(77)
    return [random_protocol_point(domain, rng) for _ in range(240)]


@pytest.fixture(scope="session")
def unprotected_campaign(secret_key, attack_points):
    cop = EccCoprocessor(CoprocessorConfig(randomize_z=False))
    sim = PowerTraceSimulator(noise_sigma=NOISE_SIGMA, seed=10)
    return acquire_in_memory(cop, sim, secret_key, attack_points,
                             scenario="unprotected", max_iterations=3)


@pytest.fixture(scope="session")
def protected_campaign(secret_key, attack_points):
    cop = EccCoprocessor(CoprocessorConfig(randomize_z=True))
    sim = PowerTraceSimulator(noise_sigma=NOISE_SIGMA, seed=11)
    return acquire_in_memory(cop, sim, secret_key, attack_points,
                             rng=random.Random(5), scenario="protected",
                             max_iterations=3)


@pytest.fixture(scope="session")
def known_randomness_campaign(secret_key, attack_points):
    cop = EccCoprocessor(CoprocessorConfig(randomize_z=True))
    sim = PowerTraceSimulator(noise_sigma=NOISE_SIGMA, seed=12)
    return acquire_in_memory(cop, sim, secret_key, attack_points[:120],
                             rng=random.Random(6),
                             scenario="known_randomness", max_iterations=6)
