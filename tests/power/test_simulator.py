"""Tests for the virtual oscilloscope and the in-RAM campaigns it measures."""

import random

import numpy as np
import pytest

from repro.arch import CoprocessorConfig, EccCoprocessor
from repro.campaign import acquire_in_memory, random_protocol_point
from repro.power import PowerTraceSimulator


@pytest.fixture(scope="module")
def setup():
    cop = EccCoprocessor(CoprocessorConfig(randomize_z=False))
    cop_protected = EccCoprocessor(CoprocessorConfig(randomize_z=True))
    rng = random.Random(9)
    points = [random_protocol_point(cop.domain, rng) for _ in range(6)]
    return cop, cop_protected, points


class TestMeasure:
    def test_trace_length_equals_cycles(self, setup):
        cop, __, points = setup
        sim = PowerTraceSimulator(noise_sigma=1.0, seed=0)
        execution = cop.point_multiply(5, points[0], max_iterations=2)
        assert sim.measure(execution).shape == (execution.cycles,)

    def test_zero_noise_is_deterministic(self, setup):
        cop, __, points = setup
        sim = PowerTraceSimulator(noise_sigma=0.0)
        execution = cop.point_multiply(5, points[0], max_iterations=2)
        assert np.array_equal(sim.measure(execution), sim.measure(execution))

    def test_noise_changes_traces(self, setup):
        cop, __, points = setup
        sim = PowerTraceSimulator(noise_sigma=5.0, seed=1)
        execution = cop.point_multiply(5, points[0], max_iterations=2)
        assert not np.array_equal(sim.measure(execution), sim.measure(execution))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PowerTraceSimulator(noise_sigma=-1.0)


class TestCampaign:
    def test_unprotected_campaign_shape(self, setup):
        cop, __, points = setup
        sim = PowerTraceSimulator(noise_sigma=1.0, seed=2)
        ts = acquire_in_memory(cop, sim, 0x123, points,
                               scenario="unprotected", max_iterations=2)
        assert ts.n_traces == len(points)
        assert ts.samples.shape[0] == len(points)
        assert ts.known_randomness is None
        assert len(ts.iteration_slices) == 2
        assert len(ts.key_bits) == 2

    def test_known_randomness_recorded(self, setup):
        __, cop_p, points = setup
        sim = PowerTraceSimulator(noise_sigma=1.0, seed=3)
        ts = acquire_in_memory(cop_p, sim, 0x123, points,
                               rng=random.Random(1),
                               scenario="known_randomness", max_iterations=2)
        assert len(ts.known_randomness) == len(points)
        assert all(z >= 1 for z in ts.known_randomness)

    def test_protected_hides_randomness(self, setup):
        __, cop_p, points = setup
        sim = PowerTraceSimulator(noise_sigma=1.0, seed=4)
        ts = acquire_in_memory(cop_p, sim, 0x123, points,
                               rng=random.Random(2), scenario="protected",
                               max_iterations=2)
        assert ts.known_randomness is None

    def test_randomized_scenarios_need_rng(self, setup):
        __, cop_p, points = setup
        with pytest.raises(ValueError):
            acquire_in_memory(cop_p, PowerTraceSimulator(), 0x123, points,
                              scenario="protected", max_iterations=2)

    def test_unknown_scenario_rejected(self, setup):
        cop, __, points = setup
        with pytest.raises(ValueError):
            acquire_in_memory(cop, PowerTraceSimulator(), 1, points,
                              scenario="nope")

    def test_max_traces_reads_the_first_traces(self, setup):
        cop, __, points = setup
        sim = PowerTraceSimulator(noise_sigma=1.0, seed=5)
        ts = acquire_in_memory(cop, sim, 0x123, points,
                               scenario="unprotected", max_iterations=2)
        [view] = ts.iter_shards(max_traces=3)
        assert view.n_traces == 3
        assert np.array_equal(view.samples, ts.samples[:3])
        assert view.points == points[:3]
        assert ts.provenance(3).n_traces == 3
        [whole] = ts.iter_shards(max_traces=100)
        assert whole.n_traces == len(points)
