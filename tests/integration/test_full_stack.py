"""Integration tests: the whole stack wired together.

These tests cross every layer boundary at once, the way the deployed
system would: the Peeters–Hermans tag computes its point
multiplications *on the coprocessor model*, and the energy ledger is
settled with the calibrated model — protocol correctness, hardware cycle counts and
joules in a single flow.
"""

import random

import pytest

from repro.arch import CoprocessorConfig, EccCoprocessor
from repro.ec import NIST_K163
from repro.energy import ComputeEnergyTable, RadioModel, protocol_energy
from repro.power import calibrate_energy_model
from repro.protocols import (
    PeetersHermansReader,
    PeetersHermansTag,
    run_identification,
)
from repro.sca import coprocessor_timing_report


class CoprocessorBackend:
    """Adapter: the protocol tag's multiplier, backed by the chip model."""

    def __init__(self, coprocessor: EccCoprocessor):
        self.coprocessor = coprocessor
        self.executions = []

    def __call__(self, k, point, rng):
        trace = self.coprocessor.point_multiply(k, point, rng=rng)
        self.executions.append(trace)
        return trace.result


@pytest.fixture(scope="module")
def stack():
    coprocessor = EccCoprocessor(CoprocessorConfig())
    backend = CoprocessorBackend(coprocessor)
    rng = random.Random(31337)
    ring = NIST_K163.scalar_ring
    reader = PeetersHermansReader(NIST_K163, ring.random_scalar(rng))
    tag = PeetersHermansTag(NIST_K163, ring.random_scalar(rng),
                            reader.public, multiplier=backend)
    reader.register(7, tag.identity_point)
    return coprocessor, backend, tag, reader, rng


class TestProtocolOnCoprocessor:
    def test_identification_succeeds_on_chip(self, stack):
        __, backend, tag, reader, rng = stack
        result = run_identification(tag, reader, rng)
        assert result.accepted
        assert result.identity == 7
        # The chip ran exactly the tag's two point multiplications.
        assert len(backend.executions) == 2

    def test_chip_cycles_match_ops_accounting(self, stack):
        coprocessor, backend, tag, reader, rng = stack
        before = len(backend.executions)
        result = run_identification(tag, reader, rng)
        runs = backend.executions[before:]
        assert len(runs) == 2
        per_pm = coprocessor.cycles_per_point_multiplication()
        assert all(trace.cycles == per_pm for trace in runs)
        # Accounting layer agrees with the hardware layer.
        assert result.tag_ops.point_multiplications >= 2

    def test_session_energy_from_calibrated_model(self, stack):
        coprocessor, backend, tag, reader, rng = stack
        model = calibrate_energy_model(coprocessor)
        before = len(backend.executions)
        result = run_identification(tag, reader, rng)
        runs = backend.executions[before:]
        chip_joules = sum(model.energy_per_operation(t) for t in runs)
        # Two point multiplications at ~5.1 uJ each.
        assert 9e-6 < chip_joules < 12e-6
        # The coarse per-op table stays within 15% of the detailed model.
        table_joules = (
            result.tag_ops.point_multiplications
            * ComputeEnergyTable().point_multiplication_j
        )
        # The accounting includes all sessions so far; compare per-run.
        assert abs(2 * 5.1e-6 - chip_joules) / chip_joules < 0.15
        assert table_joules > 0

    def test_radio_plus_chip_total(self, stack):
        coprocessor, __, tag, reader, rng = stack
        result = run_identification(tag, reader, rng)
        energy = protocol_energy("on-chip PH", result.tag_ops, 2.0,
                                 RadioModel(), ComputeEnergyTable())
        assert energy.total_j > energy.communication_j > 0
