"""Golden digests of the coprocessor's per-cycle trace and the MALU's.

``cycle_trace_golden.json`` holds one SHA-256 digest per coprocessor run
and per digit-serial multiplication below.  They were recorded from the
simulator that emitted one cycle per Python call and reduced twice per
MALU cycle, before either had a fast path, so every fast path must
reproduce those runs bit for bit.

A coprocessor run's digest covers its four activity channels as
float64 bytes, every instruction, the register write log, the result
(``result`` or ``result_x_only``), the cycle count, the iteration spans
and the key bits.  Runs: TOY-B17 at every digit size in ``DIGITS`` with
both mux encodings, both clock-gating policies and the three
``VARIANTS``; K-163 at the paper's defaults; and K-163 with every
leaky circuit option.  Each configuration runs one full point
multiplication (y-recovery on even cases, x-only on odd ones) and one
run truncated after three ladder iterations.  Scalars, base points and
Z come from a ``random.Random`` seeded by the case index.

The batch executor runs every configuration too, on a few seeded base
points and Z values at once, full (x-only) and truncated: each row
must equal that point's scalar run sample by sample, so the scalar
runs the digests pin also pin the batch.

A multiplication's digest covers its product and the trace's
accumulator states, Hamming distances and array activity, for seeded
operands (zero and all-ones among them) at every digit size on TOY-B17
and at ``K163_DIGITS`` on K-163.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.arch import CoprocessorConfig, EccCoprocessor
from repro.arch.batch import BatchCoprocessor
from repro.arch.clockgate import ClockGatingPolicy
from repro.arch.control import BalancedEncoding, UnbalancedEncoding
from repro.ec.curves import NIST_K163, TOY_B17
from repro.gf2m import DigitSerialMultiplier

GOLDEN = json.loads(
    (Path(__file__).parent / "cycle_trace_golden.json").read_text())

DIGITS = (1, 2, 3, 4, 5, 8, 9, 12, 17)
ENCODINGS = {"balanced": BalancedEncoding, "unbalanced": UnbalancedEncoding}
GATINGS = {policy.value: policy for policy in ClockGatingPolicy}
#: name -> (input_isolation, glitch_factor, dedicated_squarer,
#: fetch_overhead)
VARIANTS = {
    "iso-mulsq-f8": (True, 0.0, False, 8),
    "leaky-sq-f0": (False, 0.3, True, 0),
    "iso-sq-f2": (True, 0.0, True, 2),
}
TRUNCATED_ITERATIONS = 3
K163_DIGITS = (1, 4, 8, 9, 16, 163)
#: Base points per batch run.
BATCH_POINTS = 3
#: Operand pairs per multiplier: these plus ``RANDOM_OPERANDS`` seeded ones.
RANDOM_OPERANDS = 4


def coprocessor_configs():
    """(name, config) of every golden coprocessor configuration."""
    for d in DIGITS:
        for encoding, encoding_cls in ENCODINGS.items():
            for gating, policy in GATINGS.items():
                for variant, (isolation, glitch, squarer, fetch) in \
                        VARIANTS.items():
                    yield (f"TOY-B17|d{d}|{encoding}|{gating}|{variant}",
                           CoprocessorConfig(
                               domain=TOY_B17, digit_size=d,
                               dedicated_squarer=squarer,
                               fetch_overhead=fetch,
                               mux_encoding=encoding_cls(),
                               clock_gating=policy,
                               input_isolation=isolation,
                               glitch_factor=glitch))
    yield "K-163|defaults", CoprocessorConfig()
    yield "K-163|leaky", CoprocessorConfig(
        mux_encoding=UnbalancedEncoding(),
        clock_gating=ClockGatingPolicy.DATA_DEPENDENT,
        input_isolation=False, glitch_factor=0.2)


CONFIGS = list(coprocessor_configs())


def _floats(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def trace_digest(coprocessor, trace) -> str:
    """SHA-256 over everything a run records, channels as float64."""
    h = hashlib.sha256()
    for channel in (trace.datapath, trace.register, trace.control,
                    trace.clock):
        h.update(_floats(channel))
        h.update(b"|")
    fields = (
        [(i.opcode.value, i.rd, i.ra, i.rb, i.cycles, i.start_cycle)
         for i in trace.instructions],
        [(w.cycle, w.register, w.old_value, w.new_value)
         for w in coprocessor.registers.writes],
        None if trace.result is None else
        (trace.result.x, trace.result.y, trace.result.is_infinity),
        trace.result_x_only,
        trace.cycles,
        [(s.start, s.end, s.key_bit) for s in trace.iterations],
        trace.key_bits,
    )
    h.update(repr(fields).encode())
    return h.hexdigest()


def coprocessor_digests(index, name, config):
    """The full and the truncated run's keys and digests for one case."""
    coprocessor = EccCoprocessor(config)
    domain = config.domain
    rng = random.Random(index)
    k = rng.randrange(1, domain.order)
    point = domain.curve.multiply_naive(rng.randrange(1, domain.order),
                                        domain.generator)
    z = rng.randrange(1, domain.field.order)
    recover_y = index % 2 == 0
    full = coprocessor.point_multiply(k, point, initial_z=z,
                                      recover_y=recover_y)
    yield (f"{name}|full-{'y' if recover_y else 'x'}",
           trace_digest(coprocessor, full))
    truncated = coprocessor.point_multiply(
        k, point, initial_z=z, max_iterations=TRUNCATED_ITERATIONS)
    yield f"{name}|truncated", trace_digest(coprocessor, truncated)


def assert_row_equals(batch_trace, row, scalar_trace):
    """Row ``row`` of a batch run against one scalar run, sample for
    sample (control and clock are rows every run shares)."""
    for channel in ("datapath", "register"):
        assert np.array_equal(getattr(batch_trace, channel)[row],
                              np.asarray(getattr(scalar_trace, channel)))
    for channel in ("control", "clock"):
        assert np.array_equal(getattr(batch_trace, channel)[0],
                              np.asarray(getattr(scalar_trace, channel)))
    assert batch_trace.iterations == scalar_trace.iterations
    assert batch_trace.key_bits == scalar_trace.key_bits
    assert batch_trace.instructions == scalar_trace.instructions
    got = (None if batch_trace.result_x_only is None
           else batch_trace.result_x_only[row])
    assert got == scalar_trace.result_x_only


def multiplier_cases():
    """(name, field, digit sizes) of every golden multiplier."""
    yield "TOY-B17", TOY_B17.field, range(1, TOY_B17.field.m + 1)
    yield "K-163", NIST_K163.field, K163_DIGITS


def operands(field, seed):
    top = field.order - 1
    rng = random.Random(seed)
    fixed = [(0, top), (top, 0), (top, top), (1, top)]
    return fixed + [(rng.getrandbits(field.m), rng.getrandbits(field.m))
                    for _ in range(RANDOM_OPERANDS)]


def multiplier_digests(name, field, d):
    mult = DigitSerialMultiplier(field, d)
    for i, (a, b) in enumerate(operands(field, f"{name}|{d}")):
        product, trace = mult.multiply(a, b)
        h = hashlib.sha256()
        h.update(repr((product, trace.digit_size, trace.accumulator_states,
                       trace.hamming_distances)).encode())
        h.update(_floats(trace.array_activity))
        yield f"{name}|mul|d{d}|{i}", h.hexdigest()


MULTIPLIERS = [(name, field, d) for name, field, digits in multiplier_cases()
               for d in digits]


def test_golden_covers_every_case():
    keys = {key for index, (name, config) in enumerate(CONFIGS)
            for key in (f"{name}|full-{'y' if index % 2 == 0 else 'x'}",
                        f"{name}|truncated")}
    assert len(keys) == 220
    keys |= {f"{name}|mul|d{d}|{i}" for name, field, d in MULTIPLIERS
             for i in range(len(operands(field, 0)))}
    assert keys == GOLDEN.keys()


@pytest.mark.parametrize("index", range(len(CONFIGS)),
                         ids=[name for name, _ in CONFIGS])
def test_coprocessor_trace_matches_golden(index):
    name, config = CONFIGS[index]
    got = dict(coprocessor_digests(index, name, config))
    assert got == {key: GOLDEN[key] for key in got}


@pytest.mark.parametrize("name, field, d", MULTIPLIERS,
                         ids=[f"{name}-d{d}" for name, _f, d in MULTIPLIERS])
def test_multiplier_trace_matches_golden(name, field, d):
    got = dict(multiplier_digests(name, field, d))
    assert got == {key: GOLDEN[key] for key in got}


@pytest.mark.parametrize("index", range(len(CONFIGS)),
                         ids=[name for name, _ in CONFIGS])
def test_batch_rows_equal_scalar_runs(index):
    name, config = CONFIGS[index]
    scalar, batch = EccCoprocessor(config), BatchCoprocessor(config)
    domain = config.domain
    rng = random.Random(f"batch|{name}")
    k = scalar.recode_scalar(rng.randrange(1, domain.order))
    points = [domain.curve.multiply_naive(rng.randrange(1, domain.order),
                                          domain.generator)
              for _ in range(BATCH_POINTS)]
    z = [rng.randrange(1, domain.field.order) for _ in points]
    for max_iterations in (None, TRUNCATED_ITERATIONS):
        trace = batch.run(k, points, z, max_iterations)
        for row, (point, z0) in enumerate(zip(points, z)):
            assert_row_equals(trace, row, scalar.replay_padded(
                k, point, z0, max_iterations))
