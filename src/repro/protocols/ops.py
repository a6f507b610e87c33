"""Operation and communication accounting for protocol runs.

Section 4's design rules are quantitative: minimize the tag's
computation, minimize communication ("wireless communication is
power-hungry"), and put the heavy work on the energy-rich reader.
Every protocol run in this package therefore returns, per party, an
:class:`OperationCount` that the energy layer (:mod:`repro.energy`)
converts to joules.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

__all__ = ["OperationCount", "Transcript", "Message"]


@dataclass
class OperationCount:
    """What one party did during a protocol run."""

    point_multiplications: int = 0
    modular_multiplications: int = 0
    point_additions: int = 0
    aes_blocks: int = 0
    hash_blocks: int = 0
    random_bits: int = 0
    tx_bits: int = 0
    rx_bits: int = 0

    def __add__(self, other: "OperationCount") -> "OperationCount":
        return OperationCount(
            self.point_multiplications + other.point_multiplications,
            self.modular_multiplications + other.modular_multiplications,
            self.point_additions + other.point_additions,
            self.aes_blocks + other.aes_blocks,
            self.hash_blocks + other.hash_blocks,
            self.random_bits + other.random_bits,
            self.tx_bits + other.tx_bits,
            self.rx_bits + other.rx_bits,
        )


@dataclass(frozen=True)
class Message:
    """One protocol message with its wire size."""

    sender: str
    label: str
    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("message size cannot be negative")


@dataclass
class Transcript:
    """Everything that crossed the channel (the eavesdropper's view
    and the communication-cost ledger)."""

    messages: list = dataclass_field(default_factory=list)

    def record(self, sender: str, label: str, bits: int) -> None:
        """Append one message."""
        self.messages.append(Message(sender, label, bits))

    def bits_from(self, sender: str) -> int:
        """Total bits transmitted by one party."""
        return sum(m.bits for m in self.messages if m.sender == sender)

    @property
    def total_bits(self) -> int:
        """Total bits over the air."""
        return sum(m.bits for m in self.messages)

    @property
    def rounds(self) -> int:
        """Number of messages exchanged."""
        return len(self.messages)
