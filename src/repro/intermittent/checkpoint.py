"""NVM-modeled atomic checkpoints: two-phase commit, µJ-accounted.

A tag that can lose power at *any* cycle may never leave its durable
state half-written.  The store here models a small FRAM-class NVM
region and enforces the classic two-phase protocol:

1. **stage** — the record's bytes are programmed into the staging
   area (energy and cycles charged per byte; a brownout mid-write
   leaves a *torn* staged copy whose checksum cannot verify);
2. **commit** — a flush barrier (the fsync analogue) followed by a
   tiny commit-marker write flips the staged copy durable.

A power cut before the marker lands leaves the previous committed
record untouched and the staged copy torn or unmarked — restore
discards it (counted, never raised).  A *committed* record that fails
its checksum is therefore impossible by construction, and
:class:`~.errors.CheckpointCorruptError` is loud when it happens.

:class:`NonceVault` builds the protocol-critical discipline on top:
the Peeters–Hermans nonce ``r`` is committed *before first wire use*
and the consumed marker (with the exact response bytes) is committed
*before* ``s`` is transmitted, so across any number of power cycles
the tag can re-derive an unused nonce safely and can only ever
re-emit the byte-identical response — never a second distinct ``s``
under one ``r``.  This extends the live-object single-use lifecycle
(:class:`~repro.protocols.peeters_hermans.NonceConsumedError`) to
survive restarts.

Program energy for FRAM-class cells is dominated by the cell write
itself and is, to first order, independent of where in the power-on
window the write happens, so the model charges flat joules per byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from ..channel.frame import crc16
from ..protocols.peeters_hermans import NonceConsumedError
from .errors import CheckpointCorruptError
from .supply import PowerSupply

__all__ = ["NVMModel", "CheckpointStore", "NonceVault"]


@dataclass(frozen=True)
class NVMModel:
    """Cost model of the checkpoint NVM (FRAM-class).

    Cycles are core-clock cycles at the paper's 847.5 kHz — an NVM
    byte program is a couple of bus transactions; the flush barrier
    waits out the program pipeline.  Energies are per-operation
    joules, sized between the table's modular-multiplication (3 nJ)
    and AES-block (50 nJ) costs so checkpointing is visible but not
    dominant in the µJ ledger.
    """

    write_cycles_per_byte: int = 8
    write_energy_per_byte_j: float = 2.0e-9
    fsync_cycles: int = 128
    fsync_energy_j: float = 20.0e-9
    marker_bytes: int = 8

    def stage_cycles(self, nbytes: int) -> int:
        return nbytes * self.write_cycles_per_byte

    def stage_energy_j(self, nbytes: int) -> float:
        return nbytes * self.write_energy_per_byte_j

    def commit_cycles(self) -> int:
        return self.fsync_cycles \
            + self.marker_bytes * self.write_cycles_per_byte

    def commit_energy_j(self) -> float:
        return self.fsync_energy_j \
            + self.marker_bytes * self.write_energy_per_byte_j


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


@dataclass
class _Slot:
    """One NVM record: canonical bytes plus the checksum of the full
    record (so a torn write — truncated ``data`` — cannot verify)."""

    seq: int
    data: bytes
    crc: int

    @property
    def intact(self) -> bool:
        return crc16(self.data) == self.crc


class CheckpointStore:
    """The tag's checkpoint NVM, metered through one power supply.

    Every byte that moves charges the supply (so a brownout can land
    *inside* a stage or a commit) and accrues joules and cycles in the
    store's ledger, which the engine folds into the session's µJ
    accounting and the obs energy rollup.
    """

    def __init__(self, supply: PowerSupply, nvm: Optional[NVMModel] = None):
        self.supply = supply
        self.nvm = nvm or NVMModel()
        self._staged: Dict[str, _Slot] = {}
        self._committed: Dict[str, _Slot] = {}
        self._seq = 0
        self.energy_j = 0.0
        self.cycles = 0
        self.stages = 0
        self.commits = 0
        self.torn_discards = 0

    @property
    def energy_uj(self) -> float:
        return self.energy_j * 1e6

    def _charge(self, cycles: int, energy_j: float) -> None:
        # Energy first: the cells written before the brownout were paid
        # for even when the record ends up torn.
        self.energy_j += energy_j
        self.cycles += cycles
        self.supply.spend(cycles)

    def stage(self, kind: str, payload: dict) -> None:
        """Phase one: program the record into the staging area.

        On a mid-write brownout the staged slot holds only the bytes
        that fit before the cut — a torn copy restore will discard.
        The :class:`~.errors.PowerLossError` propagates.
        """
        data = _canonical(payload)
        self._seq += 1
        slot = _Slot(seq=self._seq, data=data, crc=crc16(data))
        total = self.nvm.stage_cycles(len(data))
        fit = self.supply.survivable(total)
        written = min(len(data), fit // self.nvm.write_cycles_per_byte)
        try:
            self._charge(total, self.nvm.stage_energy_j(written))
        except BaseException:
            if written < len(data):
                slot = _Slot(seq=slot.seq, data=data[:written],
                             crc=slot.crc)
            self._staged[kind] = slot
            raise
        self._staged[kind] = slot
        self.stages += 1

    def commit(self, kind: str) -> None:
        """Phase two: flush barrier, then the commit marker.

        A brownout anywhere in here leaves the previously committed
        record in place and the staged copy uncommitted — atomicity is
        exactly this function never half-applying.
        """
        slot = self._staged.get(kind)
        if slot is None:
            raise ValueError(f"commit of {kind!r} without a staged record")
        if not slot.intact:
            raise ValueError(f"commit of a torn {kind!r} staging record")
        self._charge(self.nvm.commit_cycles(), self.nvm.commit_energy_j())
        self._committed[kind] = self._staged.pop(kind)
        self.commits += 1

    def checkpoint(self, kind: str, payload: dict) -> None:
        """stage + commit in one call (the common case)."""
        self.stage(kind, payload)
        self.commit(kind)

    def discard_staged(self) -> int:
        """Power-on housekeeping: drop whatever staging holds.

        Un-committed staged records — torn or whole — are garbage
        after a restart; counting them is how the chaos tests verify
        cuts landed where they were aimed.  Returns how many were
        discarded.
        """
        dropped = len(self._staged)
        self.torn_discards += sum(
            1 for slot in self._staged.values() if not slot.intact)
        self._staged.clear()
        return dropped

    def restore(self, kind: str) -> Optional[dict]:
        """The last committed record of one kind, or None.

        Raises :class:`~.errors.CheckpointCorruptError` when a
        *committed* record fails its checksum — which the two-phase
        protocol makes impossible, so the error is a protocol-bug
        alarm, not a recoverable condition.
        """
        slot = self._committed.get(kind)
        if slot is None:
            return None
        if not slot.intact:
            raise CheckpointCorruptError(
                f"committed checkpoint {kind!r} (seq {slot.seq}) failed "
                "its integrity check")
        return json.loads(slot.data.decode())


# ----------------------------------------------------------------------
# the nonce lifecycle, made durable
# ----------------------------------------------------------------------

_NONCE_KIND = "nonce"
_CONSUMED_KIND = "consumed"


class NonceVault:
    """Commit-before-use nonce storage on top of a checkpoint store.

    The ordering argument (DESIGN §12): a nonce that was never on the
    wire is safe to re-derive, and a nonce that *was* on the wire must
    only ever pair with one response.  The vault enforces both ends:

    * :meth:`commit_nonce` lands ``r`` durably *before* the engine may
      transmit anything derived from it — a cut mid-commit discards
      the staged copy and the same ``r`` is re-derived, safe because
      it never left the device;
    * :meth:`commit_response` lands the consumed marker *with the
      exact response scalar* before ``s`` is transmitted — after any
      later cut the engine re-emits those bytes or nothing.

    :meth:`assert_unconsumed` is the durable extension of the
    live-object rule: computing a second response under a consumed
    epoch raises
    :class:`~repro.protocols.peeters_hermans.NonceConsumedError`, now
    across restarts too.
    """

    def __init__(self, store: CheckpointStore):
        self.store = store

    def commit_nonce(self, epoch: int, r: int) -> None:
        self.assert_unconsumed(epoch)
        self.store.checkpoint(_NONCE_KIND, {"epoch": epoch,
                                            "r": format(r, "x")})

    def committed_nonce(self, epoch: int) -> Optional[int]:
        record = self.store.restore(_NONCE_KIND)
        if record is None or record.get("epoch") != epoch:
            return None
        return int(record["r"], 16)

    def commit_response(self, epoch: int, s: int) -> None:
        self.assert_unconsumed(epoch)
        self.store.checkpoint(_CONSUMED_KIND, {"epoch": epoch,
                                               "s": format(s, "x")})

    def consumed_response(self, epoch: int) -> Optional[int]:
        record = self.store.restore(_CONSUMED_KIND)
        if record is None or record.get("epoch") != epoch:
            return None
        return int(record["s"], 16)

    def assert_unconsumed(self, epoch: int) -> None:
        if self.consumed_response(epoch) is not None:
            raise NonceConsumedError(
                f"epoch {epoch} nonce already consumed (durable marker): "
                "a resumed session must re-emit the committed response, "
                "never derive a second one")
