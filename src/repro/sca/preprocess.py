"""Trace preprocessing utilities.

The standard steps between the oscilloscope and the statistics of
Figure 4: windowing and compression.  Alignment is a no-op here by
construction — the device is constant time, so every trace has the
same schedule — but the windowing helpers are what a real campaign
would use after alignment.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window", "compress_windows", "average_traces"]


def window(samples: np.ndarray, start: int, end: int) -> np.ndarray:
    """Cut a cycle window out of every trace."""
    if not 0 <= start < end <= samples.shape[-1]:
        raise ValueError("window out of range")
    return samples[..., start:end]


def compress_windows(samples: np.ndarray, slices: list) -> np.ndarray:
    """Sum each trace over each (start, end) window.

    Turns an (n_traces, n_cycles) matrix into an
    (n_traces, n_windows) matrix of per-window energies — the feature
    extraction step of the SPA attacks (one feature per ladder
    iteration).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    features = np.empty((samples.shape[0], len(slices)), dtype=np.float64)
    for j, (start, end) in enumerate(slices):
        if not 0 <= start < end <= samples.shape[1]:
            raise ValueError(f"window {j} out of range")
        features[:, j] = samples[:, start:end].sum(axis=1)
    return features


def average_traces(samples: np.ndarray) -> np.ndarray:
    """Pointwise average of a set of traces (noise reduction by sqrt(N))."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("cannot average zero traces")
    return samples.mean(axis=0)
