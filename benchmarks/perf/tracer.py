"""Outside-in per-layer tracing for the performance benchmark.

The benchmark measures the program's layers without editing them: at
run time it replaces each public function listed in :data:`SITES` with
a timing wrapper, on every module or class that binds it, and puts the
originals back afterwards.  No source file changes, and outputs must
stay byte-identical with the wrappers in place.

Two kinds of wrapper share one stack of open calls:

* a *span* (coprocessor runs, predictions, shards, attacked bits,
  ladders, sessions) is recorded individually with its parent, start,
  end and self time;
* a *hot* call (field arithmetic, the MALU, leakage synthesis, the
  channel) runs up to ~10^5 times per point multiplication, so it is
  only aggregated, per enclosing span, as ``[count, total_s, self_s]``.

Self time is a call's duration minus the time of the wrapped calls
directly inside it, so the self times of every span and every hot
aggregate add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

__all__ = ["SITES", "Tracer", "layer_metrics", "PER_LAYER"]

HOT, SPAN, GEN = "hot", "span", "gen"

#: (key, module, class or None, attribute, kind).  A module-level
#: function is patched on every ``repro`` module that binds it; a method
#: is patched on the class that defines it.
SITES = (
    ("gf2m.clmul", "repro.gf2m.polynomial", None, "clmul", HOT),
    ("gf2m.reduce", "repro.gf2m.field", "BinaryField", "reduce", HOT),
    ("gf2m.mul_raw", "repro.gf2m.field", "BinaryField", "mul_raw", HOT),
    ("gf2m.square_raw", "repro.gf2m.field", "BinaryField", "square_raw", HOT),
    ("gf2m.inverse_raw", "repro.gf2m.field", "BinaryField", "inverse_raw",
     HOT),
    ("digit_serial.multiply", "repro.gf2m.digit_serial",
     "DigitSerialMultiplier", "multiply", HOT),
    ("arch.malu.multiply", "repro.arch.malu", "Malu", "multiply", HOT),
    ("arch.malu.square", "repro.arch.malu", "Malu", "square", HOT),
    ("arch.malu.add", "repro.arch.malu", "Malu", "add", HOT),
    ("arch.coprocessor.point_multiply", "repro.arch.coprocessor",
     "EccCoprocessor", "point_multiply", SPAN),
    ("arch.coprocessor.replay_padded", "repro.arch.coprocessor",
     "EccCoprocessor", "replay_padded", SPAN),
    ("power.consumed", "repro.power.models", "CmosLeakageModel", "consumed",
     HOT),
    ("power.measure", "repro.power.simulator", "PowerTraceSimulator",
     "measure", HOT),
    ("power.energy_report", "repro.power.energy", "EnergyModel", "report",
     HOT),
    ("sca.prediction_matrix", "repro.sca.predict", "ActivityPredictor",
     "prediction_matrix", SPAN),
    ("campaign.acquire_shard", "repro.campaign.acquire", None,
     "acquire_shard", SPAN),
    ("campaign.store.write", "repro.campaign.store", "TraceStore",
     "write_shard", HOT),
    ("campaign.store.read", "repro.campaign.store", "TraceStore",
     "iter_shards", GEN),
    ("campaign.attack_bit", "repro.campaign.streaming", "StreamingDpa",
     "attack_bit", SPAN),
    ("ec.montgomery_ladder", "repro.ec.ladder", None, "montgomery_ladder",
     SPAN),
    ("ec.multiply_naive", "repro.ec.curve", "BinaryEllipticCurve",
     "multiply_naive", SPAN),
    ("ec.add", "repro.ec.curve", "BinaryEllipticCurve", "add", HOT),
    ("ec.double", "repro.ec.curve", "BinaryEllipticCurve", "double", HOT),
    ("channel.transmit", "repro.channel.model", "BodyAreaChannel",
     "transmit", HOT),
    ("channel.encode_frame", "repro.channel.frame", None, "encode_frame",
     HOT),
    ("channel.decode_frame", "repro.channel.frame", None, "decode_frame",
     HOT),
    ("protocols.session", "repro.protocols.session", None,
     "run_resilient_session", SPAN),
    ("protocols.run_fleet", "repro.protocols.fleet", None, "run_fleet",
     SPAN),
)


def _note_cycles(tracer, result):
    tracer.counters["arch.sim_cycles"] += result.cycles


def _note_session(tracer, result):
    counters = tracer.counters
    counters["protocols.frames_sent"] += result.frames_sent
    counters["protocols.retransmissions"] += result.retransmissions
    counters["protocols.accepted"] += int(bool(result.accepted))


def _note_bit(tracer, decision):
    tracer.counters["campaign.bits_correct"] += int(
        decision.chosen == decision.true_bit)


#: Facts read off a span's return value (simulated, so deterministic).
_RESULT_HOOKS = {
    "arch.coprocessor.point_multiply": _note_cycles,
    "arch.coprocessor.replay_padded": _note_cycles,
    "protocols.session": _note_session,
    "campaign.attack_bit": _note_bit,
}


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "self_s", "agg")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.self_s = 0.0
        self.agg = {}

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_s": self.start - origin,
            "end_s": self.end - origin,
            "self_s": self.self_s,
            "agg": {name: list(v) for name, v in sorted(self.agg.items())},
        }


class Tracer:
    """Installs the wrappers, keeps spans in memory, restores on exit.

    Use as ``with Tracer() as tracer: with tracer.span("root"): ...``.
    """

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list = []
        #: key -> [calls, total_s, self_s] across the whole run
        self.totals = {key: [0, 0.0, 0.0] for key, *_ in sites}
        self.counters = {name: 0 for name in (
            "arch.sim_cycles", "protocols.frames_sent",
            "protocols.retransmissions", "protocols.accepted",
            "campaign.bits_correct")}
        # Child-time accumulators of the open calls, innermost last.
        self._frames = [[0.0]]
        self._open_spans: list = []
        self._patches: list = []     # (owner, attribute, original)
        self._originals: dict = {}   # id(wrapper) -> (wrapper, original)

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for key, module_name, class_name, attribute, kind in self.sites:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, original,
                            self._wrap(key, kind, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(key, kind, original)
            for bound, name in binding_sites(original):
                self._patch(bound, name, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._patches.append((owner, attribute, original))
        self._originals[id(wrapper)] = (wrapper, original)
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every original back, including on modules imported (and
        so bound to a wrapper) while the tracer was installed."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attribute, pair[1])
        self._originals.clear()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _wrap(self, key, kind, fn):
        frames = self._frames
        totals = self.totals[key]
        clock = perf_counter

        if kind == GEN:
            def generator_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    frames.append(frame)
                    t0 = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._close_hot(key, totals, frame, clock() - t0)
                    yield item
            return generator_wrapper

        if kind == HOT:
            def hot_wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close_hot(key, totals, frame, clock() - t0)
            return hot_wrapper

        hook = _RESULT_HOOKS.get(key)

        def span_wrapper(*args, **kwargs):
            with self.span(key) as span:
                result = fn(*args, **kwargs)
            totals[0] += 1
            totals[1] += span.end - span.start
            totals[2] += span.self_s
            if hook is not None:
                hook(self, result)
            return result
        return span_wrapper

    def _close_hot(self, key, totals, frame, dt) -> None:
        frames = self._frames
        frames.pop()
        frames[-1][0] += dt
        self_dt = dt - frame[0]
        totals[0] += 1
        totals[1] += dt
        totals[2] += self_dt
        if self._open_spans:
            entry = self._open_spans[-1].agg.get(key)
            if entry is None:
                self._open_spans[-1].agg[key] = [1, dt, self_dt]
            else:
                entry[0] += 1
                entry[1] += dt
                entry[2] += self_dt

    def span(self, name: str) -> "_SpanContext":
        """A recorded span around a block (the bench's own boundaries)."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def self_time_sum(self) -> float:
        """Self time of every span plus every hot aggregate."""
        return sum(span.self_s + sum(v[2] for v in span.agg.values())
                   for span in self.spans)

    def dump(self, path: str, **header) -> None:
        """Write every span (and the run totals) as JSON."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = dict(header)
        payload["totals"] = {k: list(v) for k, v in self.totals.items()}
        payload["counters"] = dict(self.counters)
        payload["spans"] = [s.to_dict(origin) for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=None, separators=(",", ":"))
            f.write("\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "span", "frame", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> _Span:
        tracer = self.tracer
        parent = tracer._open_spans[-1].id if tracer._open_spans else None
        self.frame = [0.0]
        tracer._frames.append(self.frame)
        self.t0 = perf_counter()
        self.span = _Span(len(tracer.spans), parent, self.name, self.t0)
        tracer.spans.append(self.span)
        tracer._open_spans.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self.tracer
        dt = end - self.t0
        tracer._frames.pop()
        tracer._frames[-1][0] += dt
        tracer._open_spans.pop()
        self.span.end = end
        self.span.self_s = dt - self.frame[0]


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def binding_sites(fn) -> list:
    """Every ``(module, name)`` of a loaded ``repro`` module bound to
    ``fn``."""
    return [(module, name) for module in _repro_modules()
            for name, value in list(vars(module).items()) if value is fn]


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

_CALLS, _TOTAL, _SELF = 0, 1, 2
_MALU = ("arch.malu.multiply", "arch.malu.square", "arch.malu.add")
_COPROCESSOR = ("arch.coprocessor.point_multiply",
                "arch.coprocessor.replay_padded")
_CODEC = ("channel.encode_frame", "channel.decode_frame")


def _sum(field, *keys):
    return lambda run: sum(run["totals"][k][field] for k in keys)


def _counter(name):
    return lambda run: run["counters"][name]


def _measured(name):
    return lambda run: run[name]


def _ratio(numerator, denominator, scale=1.0):
    def compute(run):
        den = denominator(run)
        return scale * numerator(run) / den if den else 0.0
    return compute


#: metric name -> (unit, how to compute it from a finished traced run).
#: A layer the workload never reaches reads 0.
PER_LAYER = {
    "gf2m.clmul.calls": ("count", _sum(_CALLS, "gf2m.clmul")),
    "gf2m.clmul.self_s": ("s", _sum(_SELF, "gf2m.clmul")),
    "gf2m.reduce.calls": ("count", _sum(_CALLS, "gf2m.reduce")),
    "gf2m.reduce.self_s": ("s", _sum(_SELF, "gf2m.reduce")),
    "gf2m.mul_raw.calls": ("count", _sum(_CALLS, "gf2m.mul_raw")),
    "gf2m.square_raw.calls": ("count", _sum(_CALLS, "gf2m.square_raw")),
    "gf2m.inverse_raw.calls": ("count", _sum(_CALLS, "gf2m.inverse_raw")),
    "gf2m.inverse_raw.self_s": ("s", _sum(_SELF, "gf2m.inverse_raw")),
    "digit_serial.multiply.calls": (
        "count", _sum(_CALLS, "digit_serial.multiply")),
    "digit_serial.multiply.self_s": (
        "s", _sum(_SELF, "digit_serial.multiply")),
    "arch.malu.calls": ("count", _sum(_CALLS, *_MALU)),
    "arch.malu.self_s": ("s", _sum(_SELF, *_MALU)),
    "arch.coprocessor.calls": ("count", _sum(_CALLS, *_COPROCESSOR)),
    "arch.coprocessor.self_s": ("s", _sum(_SELF, *_COPROCESSOR)),
    "arch.sim_cycles": ("count", _counter("arch.sim_cycles")),
    "arch.host_ns_per_cycle": ("ns", _ratio(
        _sum(_TOTAL, *_COPROCESSOR), _counter("arch.sim_cycles"), 1e9)),
    "power.consumed.calls": ("count", _sum(_CALLS, "power.consumed")),
    "power.consumed.self_s": ("s", _sum(_SELF, "power.consumed")),
    "power.measure.self_s": ("s", _sum(_SELF, "power.measure")),
    "power.energy_report.self_s": ("s", _sum(_SELF, "power.energy_report")),
    "sca.prediction_matrix.calls": (
        "count", _sum(_CALLS, "sca.prediction_matrix")),
    "sca.prediction_matrix.total_s": (
        "s", _sum(_TOTAL, "sca.prediction_matrix")),
    "sca.prediction_matrix.self_s": (
        "s", _sum(_SELF, "sca.prediction_matrix")),
    "campaign.acquire_shard.total_s": (
        "s", _sum(_TOTAL, "campaign.acquire_shard")),
    "campaign.store.write_s": ("s", _sum(_TOTAL, "campaign.store.write")),
    "campaign.store.read_s": ("s", _sum(_TOTAL, "campaign.store.read")),
    "campaign.attack_bit.self_s": ("s", _sum(_SELF, "campaign.attack_bit")),
    "campaign.engine_overhead_s": ("s", _measured("engine_overhead_s")),
    "campaign.bits_correct_ratio": ("ratio", _ratio(
        _counter("campaign.bits_correct"),
        _sum(_CALLS, "campaign.attack_bit"))),
    "ec.montgomery_ladder.calls": (
        "count", _sum(_CALLS, "ec.montgomery_ladder")),
    "ec.montgomery_ladder.total_s": (
        "s", _sum(_TOTAL, "ec.montgomery_ladder")),
    "ec.multiply_naive.calls": ("count", _sum(_CALLS, "ec.multiply_naive")),
    "ec.multiply_naive.total_s": ("s", _sum(_TOTAL, "ec.multiply_naive")),
    "ec.point_ops.calls": ("count", _sum(_CALLS, "ec.add", "ec.double")),
    "channel.transmit.calls": ("count", _sum(_CALLS, "channel.transmit")),
    "channel.transmit.self_s": ("s", _sum(_SELF, "channel.transmit")),
    "channel.codec.calls": ("count", _sum(_CALLS, *_CODEC)),
    "channel.codec.self_s": ("s", _sum(_SELF, *_CODEC)),
    "protocols.session.calls": ("count", _sum(_CALLS, "protocols.session")),
    "protocols.session.self_s": ("s", _sum(_SELF, "protocols.session")),
    "protocols.frames_sent": ("count", _counter("protocols.frames_sent")),
    "protocols.retransmissions": (
        "count", _counter("protocols.retransmissions")),
    "protocols.accepted_ratio": ("ratio", _ratio(
        _counter("protocols.accepted"), _sum(_CALLS, "protocols.session"))),
    "protocols.fleet_overhead_s": ("s", _measured("fleet_overhead_s")),
    "trace_overhead_frac": ("ratio", lambda run: (
        run["traced_wall_s"] / run["untraced_wall_s"] - 1.0)),
}


def layer_metrics(tracer: Tracer, **measured) -> dict:
    """Every per-layer metric of a finished traced run, by name.

    ``measured`` supplies the figures taken outside the tracer:
    ``traced_wall_s``, ``untraced_wall_s``, ``engine_overhead_s`` and
    ``fleet_overhead_s``.
    """
    run = dict(measured, totals=tracer.totals, counters=tracer.counters)
    return {name: {"value": compute(run), "unit": unit}
            for name, (unit, compute) in PER_LAYER.items()}
