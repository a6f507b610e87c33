"""The batch coprocessor against the scalar one, and its cycle counts.

``BatchCoprocessor`` runs N traces of one scalar as one numpy program;
each row of its trace must equal the scalar ``EccCoprocessor`` run of
that trace sample for sample (``tests/arch/test_cycle_trace_golden.py``
checks every golden configuration, ``tests/sca/test_predict.py`` the
resumed replays).  The campaign benchmark's DPA step no longer passes
through ``EccCoprocessor.point_multiply``, so the counts of simulated
cycles it used to report are pinned here instead, on its shape: K-163
at the paper's defaults, two ladder iterations per acquired trace.
"""

import random

import pytest

from repro.arch import CoprocessorConfig
from repro.arch.batch import BatchCoprocessor
from repro.campaign import random_protocol_point
from repro.ec.curves import TOY_B17


@pytest.fixture(scope="module")
def k163():
    return BatchCoprocessor(CoprocessorConfig())


def test_dpa_shape_cycles(k163):
    """1 208 cycles per acquired trace, 272 per prologue, 468 per
    replayed iteration."""
    rng = random.Random(2013)
    points = [random_protocol_point(k163.domain, rng) for _ in range(4)]
    z = [1] * len(points)
    acquired = k163.run(k163.recode_scalar(0x1234567), points, z,
                        max_iterations=2)
    assert acquired.datapath.shape == (4, 1208)
    prologue = k163.run(1 << k163.domain.order.bit_length(), points, z,
                        max_iterations=0)
    assert prologue.cycles == 272 and prologue.iterations == []
    iteration = k163.resume_ladder(k163.registers.snapshot(), 1, [0])
    assert iteration.datapath.shape == (4, 468)
    assert [(s.start, s.end) for s in acquired.iterations] == \
        [(272, 740), (740, 1208)]


def test_refuses_single_runs_and_bad_inputs():
    batch = BatchCoprocessor(CoprocessorConfig(domain=TOY_B17))
    g = TOY_B17.generator
    with pytest.raises(TypeError):
        batch.point_multiply(5, g, initial_z=1)
    with pytest.raises(ValueError):
        batch.run(1, [g], [1])
    with pytest.raises(ValueError):
        batch.run(batch.recode_scalar(5), [g], [])
    with pytest.raises(ValueError):
        batch.run(batch.recode_scalar(5), [g], [0])
    with pytest.raises(ValueError):
        batch.run(batch.recode_scalar(5), [g], [1 << 17])
