"""Calibrate-then-measure for symmetric engines.

The energy discipline of the whole repo is: fit ONE per-toggle energy
constant so the paper's reference ECC design (digit 4, full
countermeasures) hits its published 50.4 µW at 847.5 kHz / 1.0 V,
then price everything else through
:meth:`~repro.power.energy.EnergyModel.report_activity`.  A backend's
:class:`~repro.backends.base.EngineTrace` is in the same toggle
units, so the same calibrated model prices a Simon AEAD message and
an ECC point multiplication side by side — which is what makes
"secret-key vs. public-key" a single axis of one design space instead
of two incomparable studies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..power.energy import EnergyModel
from ..power.technology import OperatingPoint, PAPER_OPERATING_POINT
from .base import get_backend

__all__ = ["HANDSHAKE_POINT_MULTIPLICATIONS", "MESSAGE_BYTES",
           "MeasuredPrimitive", "measure_backend"]

#: Canonical message size of one DSE backend measurement (bytes).
MESSAGE_BYTES = 32

#: Tag-side ECC work of one identification handshake: the
#: Peeters-Hermans commit plus response (the E6 workload), each one
#: point multiplication.  Pure-ECC messaging pays this per message;
#: the amortized hybrid pays it once per epoch.
HANDSHAKE_POINT_MULTIPLICATIONS = 2


@dataclass(frozen=True)
class MeasuredPrimitive:
    """A symmetric engine reduced to its electrical essentials.

    The secret-key sibling of
    :class:`~repro.power.evaluation.MeasuredDesign`: ``(consumed,
    cycles, area)`` of one canonical sealed message, from which every
    (Vdd, f) operating point derives by arithmetic.
    """

    backend: str
    cycles: int
    consumed: float
    area_ge: float
    message_bytes: int = MESSAGE_BYTES

    @classmethod
    def measure(cls, backend, message_bytes: int = MESSAGE_BYTES,
                ) -> "MeasuredPrimitive":
        """Seal one canonical message and record the engine bill."""
        if isinstance(backend, str):
            backend = get_backend(backend)
        trace = backend.message_trace(message_bytes)
        return cls(backend=backend.name, cycles=trace.cycles,
                   consumed=trace.consumed, area_ge=backend.area_ge(),
                   message_bytes=message_bytes)

    def at(self, model: EnergyModel,
           point: OperatingPoint = PAPER_OPERATING_POINT):
        """Price this measurement at an operating point."""
        return model.report_activity(self.consumed, self.cycles, point)


def measure_backend(name: str,
                    message_bytes: int = MESSAGE_BYTES,
                    ) -> MeasuredPrimitive:
    """Measure a backend by name (the DSE worker entry point)."""
    return MeasuredPrimitive.measure(name, message_bytes=message_bytes)
