"""Typed failures of the design-space explorer."""

from __future__ import annotations

__all__ = ["DseError", "SpaceValidationError", "MissingMeasurementError"]


class DseError(Exception):
    """Base class for design-space exploration failures."""


class SpaceValidationError(DseError, ValueError):
    """The design-space specification itself is malformed."""


class MissingMeasurementError(DseError):
    """Analysis needs a measurement that is not in the cache.

    Raised when the reference (calibration) point is absent, or when a
    strict analysis (``repro dse pareto`` on a directory) finds grid
    points that were never explored.
    """
