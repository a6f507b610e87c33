"""The coprocessor architecture level of the security pyramid.

A cycle-level model of the paper's ECC chip: constant-time ISA,
tracked register file, digit-serial MALU, mux-control encodings
(Figure 3), clock-tree/gating model, the microcoded Montgomery-ladder
coprocessor, and the gate-count area model.
"""

from .area import (
    AES_ENC_GATES,
    AreaBreakdown,
    ECC_CORE_GATES_REFERENCE,
    GateCosts,
    PRESENT80_GATES,
    SHA1_GATES,
    ecc_core_area,
)
from .clockgate import ClockGatingPolicy, ClockTreeModel
from .control import (
    BalancedEncoding,
    DEFAULT_MUX_FANOUT,
    MuxEncoding,
    UnbalancedEncoding,
)
from .coprocessor import (
    CoprocessorConfig,
    EccCoprocessor,
    InvalidDigitSizeError,
)
from .isa import Instruction, Opcode
from .malu import Malu
from .program import (
    ProgramStatistics,
    REGISTER_NAMES,
    analyze_program,
    format_listing,
)
from .registers import RegisterFile, RegisterWrite
from .trace import ExecutionTrace, IterationSpan

__all__ = [
    "AreaBreakdown",
    "GateCosts",
    "ecc_core_area",
    "SHA1_GATES",
    "AES_ENC_GATES",
    "PRESENT80_GATES",
    "ECC_CORE_GATES_REFERENCE",
    "ClockGatingPolicy",
    "ClockTreeModel",
    "MuxEncoding",
    "UnbalancedEncoding",
    "BalancedEncoding",
    "DEFAULT_MUX_FANOUT",
    "CoprocessorConfig",
    "EccCoprocessor",
    "InvalidDigitSizeError",
    "Opcode",
    "Instruction",
    "Malu",
    "ProgramStatistics",
    "REGISTER_NAMES",
    "analyze_program",
    "format_listing",
    "RegisterFile",
    "RegisterWrite",
    "ExecutionTrace",
    "IterationSpan",
]
