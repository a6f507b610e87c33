"""The batch executor: N coprocessor runs of one scalar as one numpy program.

Every trace of a campaign runs the same instruction stream, and so does
every replay under one key hypothesis: only the base points and the
starting Z differ.  :class:`BatchCoprocessor` therefore runs N of them
at once.  It subclasses :class:`~repro.arch.coprocessor.EccCoprocessor`
and replaces only the execution layer — :meth:`_exec`, the register
file, and trace start and finish — so the microprogram
(``_prologue``, ``_double_into``, ``_ladder_iteration``, ``_ladder``,
``_final_x``, ``_inverse_in_place``) is the scalar one, instruction for
instruction.  Registers hold ``(limbs, N)`` uint64 arrays
(:mod:`repro.gf2m.limbs`); multiplications run on
:class:`~repro.gf2m.digit_serial.BatchDigitSerialMultiplier`.

Row i of a :class:`~repro.arch.trace.BatchTrace` equals run i's scalar
trace sample for sample: ``_exec`` applies the scalar float operations
in their order (``hd + array activity``, then with input isolation off
``+ 0.5 * register hd`` on the last cycle, then the glitch term
``x + g * x * x / m``).  The scalar ``EccCoprocessor`` stays the golden
reference and the single-run engine (y-recovery, pricing, SPA); the
batch executor refuses y-recovery, whose result selection depends on
the data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gf2m.digit_serial import BatchDigitSerialMultiplier
from ..gf2m.limbs import from_limbs, popcount, to_limbs
from ..obs import runtime as obs_runtime
from .coprocessor import (FETCH_ACTIVITY, ISOLATION_LEAK_WEIGHT,
                          CoprocessorConfig, EccCoprocessor)
from .isa import Instruction, Opcode
from .trace import BatchTrace

__all__ = ["BatchCoprocessor"]


class _BatchRegisters:
    """The register file of N runs: a (registers, limbs, N) uint64 array."""

    def __init__(self, count: int, limbs: int, width: int):
        self.count = count
        self.limbs = limbs
        self.width = width
        self._values = np.zeros((count, limbs, 0), dtype=np.uint64)

    @property
    def n(self) -> int:
        return self._values.shape[2]

    def start(self, n: int) -> None:
        """Zero all registers of ``n`` runs."""
        self._values = np.zeros((self.count, self.limbs, n), dtype=np.uint64)

    def read(self, index: int) -> np.ndarray:
        return self._values[index]

    def write(self, index: int, value: np.ndarray) -> np.ndarray:
        """Store ``value``; returns each run's Hamming distance (N,)."""
        distance = popcount(self._values[index] ^ value)
        self._values[index] = value
        return distance

    def snapshot(self) -> np.ndarray:
        """Copy of the whole file (see :meth:`restore`)."""
        return self._values.copy()

    def restore(self, values: np.ndarray) -> None:
        """Load a file saved by :meth:`snapshot`: one (limbs, N) array
        per register, each value within the register width."""
        values = np.asarray(values)
        if (values.dtype != np.uint64 or values.ndim != 3
                or values.shape[:2] != (self.count, self.limbs)):
            raise ValueError(
                f"expected a ({self.count}, {self.limbs}, N) uint64 "
                f"register file, got {values.dtype} {values.shape}")
        top, offset = divmod(self.width, 64)
        if (values[:, top] >> np.uint64(offset)).any() or \
                values[:, top + 1:].any():
            raise ValueError("value exceeds the register width")
        self._values = values.copy()


class BatchCoprocessor(EccCoprocessor):
    """Runs N point multiplications that share one scalar, at once.

    :meth:`run` executes the microprogram for N base points and starting
    Z values (truncated, or in full with the x-only epilogue);
    :meth:`resume_ladder` continues ladder iterations from a saved
    register file (the DPA predictor's divide-and-conquer step).
    """

    def __init__(self, config: Optional[CoprocessorConfig] = None):
        super().__init__(config)
        field = self.domain.field
        self.multiplier = BatchDigitSerialMultiplier(
            field, self.config.digit_size)
        self._limbs = self.multiplier.limb_field.limbs
        self.registers = _BatchRegisters(self.registers.count, self._limbs,
                                         field.m)

    def run(self, k_padded: int, points: list, z_values: list,
            max_iterations: Optional[int] = None) -> BatchTrace:
        """Run the recoded scalar ``k_padded`` (leading bit 1) on every
        ``(point, Z)`` pair; no y-recovery.  Row i of the result equals
        ``replay_padded(k_padded, points[i], z_values[i], max_iterations)``
        on an :class:`EccCoprocessor` of the same configuration."""
        if k_padded < 2:
            raise ValueError("a recoded scalar has at least two bits")
        if not points or len(points) != len(z_values):
            raise ValueError("need one Z per base point, and at least one")
        if any(p.is_infinity or p.x == 0 for p in points):
            raise ValueError(
                "the coprocessor requires finite base points with x != 0")
        order = self.domain.field.order
        if any(not 1 <= z < order for z in z_values):
            raise ValueError("initial Z must be a non-zero reduced field value")
        self.registers.start(len(points))
        return self._run(k_padded, to_limbs([p.x for p in points],
                                            self._limbs),
                         to_limbs(z_values, self._limbs), max_iterations)

    def resume_ladder(self, registers: np.ndarray, previous_bit: int,
                      bits: list) -> BatchTrace:
        """Run ladder iterations for ``bits`` from a saved register file.

        ``registers`` is a :meth:`registers.snapshot` taken after the
        prologue or after a ladder iteration, and ``previous_bit`` the
        key bit of that iteration (1, the implicit leading bit, after
        the prologue); it sets the first iteration's pending mux weight,
        as in a full run.  The channels equal that window of an
        uninterrupted run with the same key prefix; the trace counts
        cycles from 0 and has no result.  :attr:`registers` is left
        holding the file after the last iteration.
        """
        if previous_bit not in (0, 1) or any(b not in (0, 1) for b in bits):
            raise ValueError("key bits must be 0 or 1")
        self.registers.restore(registers)
        trace = self._start_trace()
        self._ladder(trace, previous_bit, bits)
        return self._finish_trace(trace)

    def _execute(self, *args, **kwargs):
        raise TypeError("a BatchCoprocessor runs batches (run, "
                        "resume_ladder); single runs and y-recovery stay "
                        "on EccCoprocessor")

    # ------------------------------------------------------------------
    # execution layer
    # ------------------------------------------------------------------

    def _start_trace(self) -> BatchTrace:
        trace = BatchTrace()
        self._trace = trace
        self._cycle = 0
        self._pending_control = 0.0
        return trace

    def _exec(self, opcode: Opcode, rd: int, ra: int = -1, rb: int = -1,
              immediate=None) -> None:
        """Execute one instruction on every run; see
        :meth:`EccCoprocessor._exec`.  ``immediate`` is an int (the same
        for every run) or a (limbs, N) array."""
        regs = self.registers
        config = self.config
        if opcode is Opcode.MUL or (opcode is Opcode.SQR
                                    and not config.dedicated_squarer):
            a = regs.read(ra)
            result, datapath = self.multiplier.multiply(
                a, a if opcode is Opcode.SQR else regs.read(rb))
        else:
            if opcode is Opcode.SQR:
                a = regs.read(ra)
                result = self.multiplier.limb_field.square(a)
                toggles = a ^ result
            elif opcode is Opcode.ADD:
                result = toggles = regs.read(ra) ^ regs.read(rb)
            elif opcode is Opcode.MOV:
                result = toggles = regs.read(ra).copy()
            elif opcode is Opcode.LDI:
                if immediate is None:
                    raise ValueError("LDI requires an immediate")
                if isinstance(immediate, int):
                    immediate = np.repeat(
                        to_limbs([immediate], self._limbs), regs.n, axis=1)
                result = toggles = immediate
            else:  # pragma: no cover - enum is closed
                raise ValueError(f"unknown opcode {opcode}")
            # One cycle; activity = the result bus toggles.
            datapath = popcount(toggles)[:, None].astype(np.float64)

        trace = self._trace
        start_cycle = self._cycle
        fetch = config.fetch_overhead
        cycles = fetch + datapath.shape[1]
        register_hd = regs.write(rd, result).astype(np.float64)
        if not config.input_isolation:
            datapath[:, -1] += ISOLATION_LEAK_WEIGHT * register_hd
        glitch = config.glitch_factor
        if glitch:
            m = self.domain.field.m
            datapath = datapath + glitch * datapath * datapath / m
        if fetch:
            trace.datapath.append(np.broadcast_to(
                FETCH_ACTIVITY, (datapath.shape[0], fetch)))
        trace.datapath.append(datapath)
        trace.register.append(register_hd)
        trace.control.append(self._pending_control)
        self._pending_control = 0.0
        self._cycle += cycles
        trace.instructions.append(
            Instruction(opcode=opcode, rd=rd, ra=ra, rb=rb, cycles=cycles,
                        start_cycle=start_cycle)
        )

    def _finish_trace(self, trace: BatchTrace) -> BatchTrace:
        """Assemble the channels, check them, record every run's metrics."""
        n, cycles = self.registers.n, self._cycle
        starts = np.array([i.start_cycle for i in trace.instructions],
                          dtype=np.intp)
        ends = starts + np.array([i.cycles for i in trace.instructions],
                                 dtype=np.intp) - 1
        datapath = (np.concatenate(trace.datapath, axis=1) if trace.datapath
                    else np.zeros((n, 0)))
        register = np.zeros((n, cycles))
        if trace.register:
            register[:, ends] = np.stack(trace.register, axis=1)
        control = np.zeros((1, cycles))
        control[0, starts] = trace.control
        clock = np.full((1, cycles), self._clock_idle, dtype=np.float64)
        clock[0, ends] = [self._clock_write[i.rd] for i in trace.instructions]
        trace.datapath, trace.register = datapath, register
        trace.control, trace.clock = control, clock
        if trace.result_x_only is not None:
            trace.result_x_only = from_limbs(trace.result_x_only)
        trace.check_consistency()
        self._trace = None
        rt = obs_runtime.current()
        if rt is not None:
            for _ in range(n):
                self._record_execution_metrics(rt.registry, trace)
        return trace
