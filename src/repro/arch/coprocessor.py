"""The programmable ECC coprocessor: a cycle-level model of the chip.

This is the paper's artifact (Sections 5–6): a Montgomery-ladder point
multiplier over GF(2^163) built around a digit-serial MALU and six
163-bit working registers, with the full countermeasure stack —

* constant instruction timing (every opcode takes a fixed cycle count),
* a fixed iteration count for every scalar (the scalar is re-coded as
  ``k' = k + n`` or ``k + 2n`` so every multiplication runs the same
  number of ladder iterations — Coron-style length padding),
* randomized projective coordinates (Algorithm 1's ``R <- (x*r : r)``),
* configurable mux-select encoding (Figure 3), clock gating policy,
  datapath input isolation and glitch behaviour, so each circuit-level
  guideline of Section 6 can be switched on/off and attacked.

Registers: X1, Z1, X2, Z2, XB (the base-point x) and T — six working
registers for the whole ladder, matching the paper (a seventh, SB,
holds sqrt(b) on non-Koblitz curves where b != 1).  Two additional
bus-buffer slots (IO0, IO1) belong to the host interface and are used
only by the y-recovery/inversion epilogue, whose inputs are either
public (the base point) or masked by the Z-randomization.

Calibration note: the per-instruction ``fetch_overhead`` default of 8
cycles (microcode fetch, RAM-based operand reads, writeback — the
register storage in the reference architecture [10] is a RAM macro)
is chosen so a full K-163 point multiplication takes ~85 k cycles,
reproducing the paper's 9.8 point multiplications/s at 847.5 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from time import perf_counter as _perf_counter
from typing import Optional

from ..ec.curves import NamedCurve, NIST_K163
from ..ec.ladder import choose_z
from ..ec.point import AffinePoint
from ..obs import profile as obs_profile
from ..obs import runtime as obs_runtime
from ..obs.metrics import DEFAULT_CYCLE_BUCKETS
from .clockgate import ClockGatingPolicy, ClockTreeModel
from .control import BalancedEncoding, MuxEncoding
from .isa import Instruction, Opcode
from .malu import Malu
from .registers import RegisterFile
from .trace import ExecutionTrace, IterationSpan

__all__ = ["CoprocessorConfig", "EccCoprocessor", "InvalidDigitSizeError"]


class InvalidDigitSizeError(ValueError):
    """A digit size the digit-serial datapath cannot be built with.

    Raised at :class:`CoprocessorConfig` construction, so a malformed
    design point fails with a typed error at the design-space boundary
    instead of deep inside the multiplier or the area model.
    """

#: Constant instruction-fetch switching activity per overhead cycle
#: (program counter, microcode word, decoder) — data-independent.
FETCH_ACTIVITY = 8.0

#: Spurious-toggle weight when datapath inputs are NOT isolated from
#: register updates (Section 6: "isolate the inputs to the data-paths").
ISOLATION_LEAK_WEIGHT = 0.5


@dataclass
class CoprocessorConfig:
    """Design-space point of the coprocessor.

    The defaults reproduce the paper's protected design: K-163, digit
    size 4, squaring on the multiplier, balanced mux encoding, no
    data-dependent clock gating, isolated datapath inputs, no glitching,
    randomized projective coordinates.
    """

    domain: NamedCurve = dataclass_field(default_factory=lambda: NIST_K163)
    digit_size: int = 4
    dedicated_squarer: bool = False
    fetch_overhead: int = 8
    mux_encoding: MuxEncoding = dataclass_field(default_factory=BalancedEncoding)
    clock_gating: ClockGatingPolicy = ClockGatingPolicy.ALWAYS_ON
    clock_branch_mismatch: float = 0.1
    input_isolation: bool = True
    glitch_factor: float = 0.0
    randomize_z: bool = True

    def __post_init__(self):
        d = self.digit_size
        m = self.domain.field.m
        if isinstance(d, bool) or not isinstance(d, int):
            raise InvalidDigitSizeError(
                f"digit size must be an integer, got {d!r}"
            )
        if d < 1:
            raise InvalidDigitSizeError(
                f"digit size must be at least 1, got {d}"
            )
        if d > m:
            raise InvalidDigitSizeError(
                f"digit size {d} exceeds the field degree m = {m}: the "
                "multiplication already finishes in one cycle at d = m, "
                "so the extra partial-product rows buy nothing"
            )
        if self.fetch_overhead < 0:
            raise ValueError("fetch overhead cannot be negative")

    @property
    def is_koblitz_b1(self) -> bool:
        """True when b = 1, which saves the sqrt(b) register and multiply."""
        return self.domain.curve.b == 1

    @property
    def core_register_count(self) -> int:
        """Working registers inside the secure zone (6, or 7 if b != 1)."""
        return 6 if self.is_koblitz_b1 else 7


# Register indices.
X1, Z1, X2, Z2, XB, T = range(6)
SB = 6          # sqrt(b), only allocated when b != 1
# The two host-bus buffer slots come after the core registers.


class EccCoprocessor:
    """Executes Montgomery-ladder point multiplications, cycle by cycle.

    Examples
    --------
    >>> import random
    >>> from repro.arch import EccCoprocessor, CoprocessorConfig
    >>> cop = EccCoprocessor(CoprocessorConfig())
    >>> trace = cop.point_multiply(0x1234, cop.domain.generator,
    ...                            rng=random.Random(0))
    >>> trace.result == cop.domain.curve.multiply_naive(0x1234,
    ...                                                 cop.domain.generator)
    True
    """

    def __init__(self, config: Optional[CoprocessorConfig] = None):
        self.config = config or CoprocessorConfig()
        self.domain = self.config.domain
        field = self.domain.field
        self.malu = Malu(
            field, self.config.digit_size, self.config.dedicated_squarer
        )
        self._io0 = self.config.core_register_count
        self._io1 = self.config.core_register_count + 1
        total_registers = self.config.core_register_count + 2
        self.registers = RegisterFile(total_registers, field.m)
        self.clock_tree = ClockTreeModel(
            self.config.clock_gating,
            total_registers,
            self.config.clock_branch_mismatch,
            leaf_load=float(field.m),
        )
        # A cycle's clock contribution depends only on which register
        # (if any) it writes, so it is tabulated once.
        self._clock_idle = self.clock_tree.cycle_contribution([])
        self._clock_write = [
            self.clock_tree.cycle_contribution([r])
            for r in range(total_registers)
        ]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def recode_scalar(self, k: int) -> int:
        """Length-pad the scalar: k' = k + n or k + 2n, fixed bit length.

        Every recoded scalar has bit length ``n.bit_length() + 1``, so
        the ladder always runs the same number of iterations — the
        architecture half of the constant-time property (Section 7).
        Requires the base point to have order n (prime-order subgroup).
        """
        n = self.domain.order
        if not 1 <= k < n:
            raise ValueError("scalar must be in [1, order - 1]")
        target_bits = n.bit_length() + 1
        padded = k + n
        if padded.bit_length() < target_bits:
            padded = k + 2 * n
        if padded.bit_length() != target_bits:
            raise AssertionError("scalar recoding failed to fix the length")
        return padded

    @property
    def iterations_per_multiplication(self) -> int:
        """Ladder iterations of every point multiplication (constant)."""
        return self.domain.order.bit_length()

    def point_multiply(
        self,
        k: int,
        point: AffinePoint,
        rng=None,
        initial_z: Optional[int] = None,
        max_iterations: Optional[int] = None,
        recover_y: bool = True,
    ) -> ExecutionTrace:
        """Run one point multiplication and return its execution trace.

        Parameters
        ----------
        k:
            Secret scalar in [1, n-1].
        point:
            Base point; must be a finite point of order n with x != 0
            (protocol points always are).
        rng:
            Randomness for the Z-randomization countermeasure.
        initial_z:
            Explicit Z (white-box "randomness known" scenario).
        max_iterations:
            Truncate after this many ladder iterations (no result) —
            used by DPA experiments that only target the leading key
            bits and do not need the full 86 k-cycle trace.
        recover_y:
            Run the y-recovery epilogue.  When False the result is
            exposed as ``trace.result_x_only``.
        """
        k_padded = self.recode_scalar(k)
        z0 = choose_z(self.domain.field, rng, self.config.randomize_z,
                      initial_z)
        return self._execute(k_padded, point, z0, max_iterations, recover_y)

    def replay_padded(
        self,
        k_padded: int,
        point: AffinePoint,
        initial_z: int,
        max_iterations: Optional[int] = None,
    ) -> ExecutionTrace:
        """Re-execute the (public) microcode for a hypothesized scalar.

        This is the adversary's tool in the white-box evaluation of
        Section 7: the netlist and microcode are known, so for any
        *hypothesized* recoded scalar and assumed randomization value
        the attacker can predict the chip's switching activity exactly.
        ``k_padded`` is the already-recoded scalar (leading bit 1); no
        y-recovery is run.
        """
        if k_padded < 2:
            raise ValueError("a recoded scalar has at least two bits")
        return self._execute(
            k_padded, point, initial_z, max_iterations, recover_y=False
        )

    def _execute(
        self,
        k_padded: int,
        point: AffinePoint,
        z0: int,
        max_iterations: Optional[int],
        recover_y: bool,
    ) -> ExecutionTrace:
        if point.is_infinity or point.x == 0:
            raise ValueError(
                "the coprocessor requires a finite base point with x != 0; "
                "degenerate points are handled by the host"
            )
        field = self.domain.field
        if not 1 <= z0 < field.order:
            raise ValueError("initial Z must be a non-zero reduced field value")
        self.registers.reset()
        return self._run(k_padded, point.x, z0, max_iterations,
                         point if recover_y else None)

    def _run(self, k_padded: int, x, z0, max_iterations: Optional[int],
             recover_point: Optional[AffinePoint] = None) -> ExecutionTrace:
        """The microprogram: prologue, one ladder iteration per bit of
        ``k_padded`` after its leading 1 (at most ``max_iterations``),
        then, unless truncated, the y-recovery epilogue (when
        ``recover_point`` is given) or the x-only one."""
        trace = self._start_trace()
        self._prologue(x, z0)
        bits = [
            (k_padded >> i) & 1 for i in range(k_padded.bit_length() - 2, -1, -1)
        ]
        truncated = max_iterations is not None and max_iterations < len(bits)
        if truncated:
            bits = bits[:max(max_iterations, 0)]
        self._ladder(trace, 1, bits)  # after the implicit leading MSB
        if not truncated:
            if recover_point is not None:
                trace.result = self._recover_y(recover_point)
            else:
                trace.result_x_only = self._final_x()
        return self._finish_trace(trace)

    def _start_trace(self) -> ExecutionTrace:
        """A fresh trace that ``_exec`` appends to, from cycle 0."""
        trace = ExecutionTrace()
        self._trace = trace
        self._cycle = 0
        self._pending_control = 0.0
        return trace

    def _ladder(self, trace: ExecutionTrace, previous_bit: int,
                bits: list) -> None:
        """One ladder iteration per key bit, each recorded as a span."""
        profiling = obs_profile.enabled()
        for bit in bits:
            start = self._cycle
            self._pending_control = self.config.mux_encoding.transition_weight(
                previous_bit, bit
            )
            if profiling:
                t0 = _perf_counter()
                self._ladder_iteration(bit)
                obs_profile.observe("ladder_step", _perf_counter() - t0)
            else:
                self._ladder_iteration(bit)
            trace.iterations.append(
                IterationSpan(start=start, end=self._cycle, key_bit=bit)
            )
            trace.key_bits.append(bit)
            previous_bit = bit

    def _finish_trace(self, trace: ExecutionTrace) -> ExecutionTrace:
        """Check the trace and fold it into the obs registry, if any."""
        trace.check_consistency()
        self._trace = None
        rt = obs_runtime.current()
        if rt is not None:
            self._record_execution_metrics(rt.registry, trace)
        return trace

    def _record_execution_metrics(self, registry, trace: ExecutionTrace):
        """Fold one execution's instruction mix into the obs registry.

        Everything recorded here is cycle-exact simulator state, so the
        same campaign seed always reproduces the same values — these
        are the series ``obs diff`` watches for cycle regressions.
        """
        counts: dict = {}
        mults = 0
        for instruction in trace.instructions:
            name = instruction.opcode.value
            counts[name] = counts.get(name, 0) + 1
            if instruction.opcode is Opcode.MUL:
                mults += 1
        ops = registry.counter("repro_arch_instructions_total",
                               "executed instructions by opcode")
        for name in sorted(counts):
            ops.inc(counts[name], op=name)
        registry.counter("repro_arch_pointmults_total",
                         "point multiplications executed").inc()
        registry.histogram(
            "repro_arch_pointmult_cycles",
            "cycles per point multiplication (or truncated ladder)",
            buckets=DEFAULT_CYCLE_BUCKETS,
        ).observe(trace.cycles)
        steps = registry.histogram(
            "repro_arch_ladder_step_cycles",
            "cycles per Montgomery-ladder iteration",
            buckets=(50, 100, 200, 400, 800, 1600, 3200),
        )
        for span in trace.iterations:
            steps.observe(span.end - span.start)
        registry.histogram(
            "repro_arch_gf2m_mults_per_pointmult",
            "GF(2^m) multiplier dispatches per execution",
            buckets=(10, 30, 100, 300, 1000, 3000, 10000),
        ).observe(mults)

    def cycles_per_point_multiplication(self) -> int:
        """Cycle count of a full point multiplication (any scalar)."""
        trace = self.point_multiply(
            1, self.domain.generator, initial_z=1, recover_y=True
        )
        return trace.cycles

    # ------------------------------------------------------------------
    # microprograms
    # ------------------------------------------------------------------

    def _prologue(self, x, z0) -> None:
        """Load operands, randomize, and compute Q = 2P (Algorithm 1)."""
        self._exec(Opcode.LDI, XB, immediate=x)
        if not self.config.is_koblitz_b1:
            sqrt_b = self.domain.field.sqrt_raw(self.domain.curve.b)
            self._exec(Opcode.LDI, SB, immediate=sqrt_b)
        self._exec(Opcode.LDI, Z1, immediate=z0)
        self._exec(Opcode.MUL, X1, XB, Z1)  # X1 = x * r
        self._double_into(X2, Z2, X1, Z1)

    def _double_into(self, dx: int, dz: int, sx: int, sz: int) -> None:
        """(dx : dz) <- double of (sx : sz); uses T as scratch."""
        self._exec(Opcode.SQR, T, sx)     # T  = sx^2
        self._exec(Opcode.SQR, dx, sz)    # dx = sz^2
        self._exec(Opcode.MUL, dz, T, dx)  # dz = sx^2 * sz^2
        if self.config.is_koblitz_b1:
            self._exec(Opcode.ADD, T, T, dx)   # T = sx^2 + sz^2
        else:
            self._exec(Opcode.MUL, dx, SB, dx)  # dx = sqrt(b) * sz^2
            self._exec(Opcode.ADD, T, T, dx)
        self._exec(Opcode.SQR, dx, T)     # dx = (sx^2 + sqrt(b) sz^2)^2

    def _ladder_iteration(self, bit: int) -> None:
        """One MPL iteration: Madd into the A side, Mdouble the B side.

        The (A, B) register routing is the multiplexer function of
        Figure 3: the instruction *sequence* is identical for both key
        bit values, only the operand selects differ.
        """
        if bit:
            ax, az, bx, bz = X1, Z1, X2, Z2
        else:
            ax, az, bx, bz = X2, Z2, X1, Z1
        # Differential addition (4 MUL + 1 SQR + 2 ADD):
        self._exec(Opcode.MUL, T, ax, bz)    # T  = AX * BZ
        self._exec(Opcode.MUL, ax, bx, az)   # AX = BX * AZ
        self._exec(Opcode.ADD, az, T, ax)    # AZ = T + AX
        self._exec(Opcode.SQR, az, az)       # AZ = (AX*BZ + BX*AZ)^2
        self._exec(Opcode.MUL, T, T, ax)     # T  = (AX*BZ)*(BX*AZ)
        self._exec(Opcode.MUL, ax, XB, az)   # AX = x * AZ
        self._exec(Opcode.ADD, ax, ax, T)    # AX = x*AZ + T
        # Doubling of the B side:
        self._double_into(bx, bz, bx, bz)

    def _inverse_in_place(self, target: int, operand_copy: int, scratch: int) -> None:
        """target <- operand^-1 by the Itoh–Tsujii chain (MALU-only).

        ``operand_copy`` must hold the value to invert (it is
        preserved); ``scratch`` is clobbered.  Matches
        ``BinaryField.inverse_itoh_tsujii_raw`` instruction for
        instruction.
        """
        m = self.domain.field.m
        exponent_bits = []
        k = m - 1
        while k:
            exponent_bits.append(k & 1)
            k >>= 1
        exponent_bits.reverse()
        self._exec(Opcode.MOV, target, operand_copy)  # result = a (chain 1)
        chain_len = 1
        for bit in exponent_bits[1:]:
            self._exec(Opcode.MOV, scratch, target)
            for _ in range(chain_len):
                self._exec(Opcode.SQR, scratch, scratch)
            self._exec(Opcode.MUL, target, scratch, target)
            chain_len *= 2
            if bit:
                self._exec(Opcode.SQR, target, target)
                self._exec(Opcode.MUL, target, target, operand_copy)
                chain_len += 1
        self._exec(Opcode.SQR, target, target)

    def _final_x(self) -> int:
        """x-only epilogue: x3 = X1 / Z1 (one inversion)."""
        io0, io1 = self._io0, self._io1
        self._exec(Opcode.MOV, io0, Z1)
        self._inverse_in_place(T, io0, io1)      # T = 1/Z1
        self._exec(Opcode.MUL, X1, X1, T)        # X1 = x3
        return self.registers.read(X1)

    def _recover_y(self, point: AffinePoint) -> AffinePoint:
        """Full y-recovery epilogue (López–Dahab), one shared inversion.

        The ``Z2 == 0`` edge case (``k = n - 1``, so ``(k+1)P`` is the
        point at infinity) still executes the *entire* instruction
        sequence — every opcode operates happily on zero operands — and
        only the final result selection differs.  Short-circuiting here
        would make the epilogue ~9 k cycles shorter for exactly one
        scalar, a textbook timing oracle; real silicon raises the flag
        but lets the microcode run to completion.
        """
        regs = self.registers
        field = self.domain.field
        io0, io1 = self._io0, self._io1
        z2_vanished = regs.read(Z2) == 0
        # a = x * Z1 * Z2 ; inv = 1/a.
        self._exec(Opcode.MUL, io0, Z1, Z2)
        self._exec(Opcode.MUL, io0, XB, io0)
        self._inverse_in_place(T, io0, io1)       # T = inv
        self._exec(Opcode.MUL, io0, T, XB)        # io0 = inv * x
        self._exec(Opcode.MUL, io1, io0, Z2)      # io1 = 1/Z1
        self._exec(Opcode.MUL, X1, X1, io1)       # X1 = xa = x(kP)
        self._exec(Opcode.MUL, io1, io0, Z1)      # io1 = 1/Z2
        self._exec(Opcode.MUL, X2, X2, io1)       # X2 = xb = x((k+1)P)
        self._exec(Opcode.MUL, io0, Z1, Z2)
        self._exec(Opcode.MUL, io0, T, io0)       # io0 = 1/x
        self._exec(Opcode.LDI, io1, immediate=point.y)
        self._exec(Opcode.ADD, Z1, X1, XB)        # Z1 = xa + x
        self._exec(Opcode.ADD, Z2, X2, XB)        # Z2 = xb + x
        self._exec(Opcode.MUL, Z2, Z1, Z2)        # Z2 = (xa+x)(xb+x)
        self._exec(Opcode.SQR, T, XB)             # T = x^2
        self._exec(Opcode.ADD, Z2, Z2, T)
        self._exec(Opcode.ADD, Z2, Z2, io1)       # Z2 += y
        self._exec(Opcode.MUL, Z2, Z1, Z2)        # Z2 = (xa+x) * [...]
        self._exec(Opcode.MUL, Z2, Z2, io0)       # Z2 *= 1/x
        self._exec(Opcode.ADD, Z2, Z2, io1)       # Z2 += y -> y3
        if z2_vanished:
            # kP = -P; the registers hold the (harmless) zero-operand
            # garbage of the dummy run above.
            return self.domain.curve.negate(point)
        result = AffinePoint(regs.read(X1), regs.read(Z2))
        if not self.domain.curve.is_on_curve(result):
            raise AssertionError("y-recovery produced an off-curve point")
        return result

    # ------------------------------------------------------------------
    # execution engine
    # ------------------------------------------------------------------

    def _exec(self, opcode: Opcode, rd: int, ra: int = -1, rb: int = -1,
              immediate: Optional[int] = None) -> None:
        """Execute one instruction, appending its per-cycle activity.

        The instruction's ``fetch_overhead`` fetch cycles come first,
        then one cycle per datapath activity entry; the register write
        lands on the last cycle and the pending control weight on the
        first.
        """
        regs = self.registers
        config = self.config
        if opcode is Opcode.MUL:
            result, activity = self.malu.multiply(regs.read(ra), regs.read(rb))
        elif opcode is Opcode.SQR:
            result, activity = self.malu.square(regs.read(ra))
        elif opcode is Opcode.ADD:
            result, activity = self.malu.add(regs.read(ra), regs.read(rb))
        elif opcode is Opcode.MOV:
            result = regs.read(ra)
            activity = [result.bit_count()]
        elif opcode is Opcode.LDI:
            if immediate is None:
                raise ValueError("LDI requires an immediate")
            result = immediate
            activity = [result.bit_count()]
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown opcode {opcode}")

        trace = self._trace
        start_cycle = self._cycle
        fetch = config.fetch_overhead
        cycles = fetch + len(activity)
        event = regs.write(rd, result, start_cycle + cycles - 1)
        register_hd = float(event.hamming_distance)
        datapath = [float(toggles) for toggles in activity]
        if not config.input_isolation:
            # Register update ripples into the datapath inputs.
            datapath[-1] += ISOLATION_LEAK_WEIGHT * register_hd
        glitch = config.glitch_factor
        if glitch:
            # Glitches add toggles superlinearly in the activity.
            m = self.domain.field.m
            datapath = [x + glitch * x * x / m for x in datapath]
        trace.datapath.extend([FETCH_ACTIVITY] * fetch)
        trace.datapath.extend(datapath)
        trace.register.extend([0.0] * (cycles - 1))
        trace.register.append(register_hd)
        trace.control.append(self._pending_control)
        trace.control.extend([0.0] * (cycles - 1))
        self._pending_control = 0.0
        trace.clock.extend([self._clock_idle] * (cycles - 1))
        trace.clock.append(self._clock_write[rd])
        self._cycle += cycles
        trace.instructions.append(
            Instruction(
                opcode=opcode,
                rd=rd,
                ra=ra,
                rb=rb,
                cycles=cycles,
                start_cycle=start_cycle,
            )
        )
