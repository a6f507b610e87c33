"""Tests for preprocessing and the TVLA t-test."""

import numpy as np
import pytest

from repro.sca import (
    TVLA_THRESHOLD,
    average_traces,
    compress_windows,
    tvla_fixed_vs_random,
    welch_t_statistic,
    window,
)


class TestPreprocess:

    def test_window(self):
        x = np.arange(20).reshape(2, 10)
        assert window(x, 2, 5).shape == (2, 3)
        with pytest.raises(ValueError):
            window(x, 5, 2)

    def test_compress_windows(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        f = compress_windows(x, [(0, 2), (2, 4)])
        assert np.allclose(f, [[3.0, 7.0]])

    def test_compress_out_of_range(self):
        with pytest.raises(ValueError):
            compress_windows(np.ones((1, 4)), [(0, 9)])

    def test_average(self):
        x = np.array([[1.0, 3.0], [3.0, 5.0]])
        assert np.allclose(average_traces(x), [2.0, 4.0])
        with pytest.raises(ValueError):
            average_traces(np.empty((0, 4)))


class TestWelchTtest:
    def test_identical_populations_pass(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, size=(300, 20))
        b = rng.normal(0, 1, size=(300, 20))
        report = tvla_fixed_vs_random(a, b)
        assert not report.leaks

    def test_shifted_sample_detected(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, size=(300, 20))
        b = rng.normal(0, 1, size=(300, 20))
        b[:, 7] += 1.0
        report = tvla_fixed_vs_random(a, b)
        assert report.leaks
        assert report.num_leaky_samples >= 1
        assert report.max_abs_t > TVLA_THRESHOLD

    def test_t_statistic_shape(self):
        a = np.random.default_rng(4).normal(size=(10, 8))
        b = np.random.default_rng(5).normal(size=(12, 8))
        assert welch_t_statistic(a, b).shape == (8,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            welch_t_statistic(np.ones((5, 4)), np.ones((5, 6)))

    def test_tiny_groups_rejected(self):
        with pytest.raises(ValueError):
            welch_t_statistic(np.ones((1, 4)), np.ones((5, 4)))

    def test_report_str(self):
        rng = np.random.default_rng(6)
        report = tvla_fixed_vs_random(
            rng.normal(size=(50, 5)), rng.normal(size=(50, 5))
        )
        assert "TVLA" in str(report)
