"""The field-cutting attacker: power cuts as a cryptanalytic tool.

A wirelessly powered tag's Vdd is the *reader's* to give and take.  A
malicious reader can therefore do something no passive eavesdropper
can: cut the field at a chosen cycle, force a restart, and watch what
the tag does with its nonce the second time around.

The target is the real
:class:`~repro.protocols.peeters_hermans.PeetersHermansTag` that the
fleet, the server and the attack lab run, driven by
:class:`~repro.intermittent.IntermittentSession`.  Against a naive
tag (no NVM: the nonce lives in the tag's RAM, and the restarted tag
draws it again from its seed — the classic replayed-TRNG bug) the
attack is a complete break of Peeters–Hermans:

1. **probe** — run one uninterrupted session against the target and
   record its cycle timeline (everything on it is observable: RF
   frames, plus the supply-current signature of NVM commits);
2. **cut** — replay the session, dropping the field one cycle before
   the tag would have heard the acknowledgement: the response ``s`` is
   already on the wire, but the tag never retires the epoch;
3. **harvest** — the restarted tag re-derives the *same* ``r``,
   answers the attacker's *fresh* challenge ``e'`` with a second
   response ``s'``;
4. **solve** — two equations in two unknowns::

       s  = d + x + e·r
       s' = d + x + e'·r

   give ``r = (s - s')/(e - e')`` and then, since the attacker is the
   reader and can compute ``d = xcoord(r·Y)`` itself,
   ``x = s - d - e·r`` — the tag's long-term secret.

Against the checkpointing tag the same schedule harvests nothing: the
consumed marker is committed before ``s`` is transmitted, so the
resumed tag re-emits the byte-identical ``s`` and the two-equation
system never materialises (see
:class:`~repro.intermittent.checkpoint.NonceVault`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ec.curves import get_curve
from ..ec.ladder import montgomery_ladder
from ..intermittent import (
    IntermittentSession,
    IntermittentSpec,
    PowerCutSchedule,
    adversarial_schedules,
)

__all__ = ["FieldCutAttacker", "FieldCutOutcome", "run_fieldcut_attack"]

#: The tender spot the attack aims for: the gap between the response
#: frame and the acknowledgement, when ``s`` is on the wire but the
#: epoch is not yet retired.
TARGET_EVENT = "ack-received"


@dataclass(frozen=True)
class FieldCutOutcome:
    """What the attacker walked away with."""

    target: str                     # "naive" or "checkpointing"
    cut_cycle: Optional[int]        # where the field was dropped
    responses_harvested: int        # distinct s values under one r
    key_recovered: bool
    recovered_r: Optional[int]
    recovered_x: Optional[int]
    secret_x: int                   # ground truth, for the verdict

    @property
    def broken(self) -> bool:
        return self.key_recovered and self.recovered_x == self.secret_x

    def verdict(self) -> str:
        if self.broken:
            return (f"{self.target} tag BROKEN: nonce reuse across the "
                    f"cut leaked r and the long-term secret")
        return (f"{self.target} tag held: "
                f"{self.responses_harvested} distinct response(s) "
                f"harvested, key not recoverable")


class FieldCutAttacker:
    """A malicious reader with a hand on the field coil.

    ``spec.seed`` is the *target's* provisioning; the attacker does
    not know the tag's secret — it only drives the supply and issues
    its own challenges.  ``outcome.secret_x`` is filled in afterwards
    purely to verify the recovery.
    """

    def __init__(self, spec: IntermittentSpec, session_index: int = 0):
        self.spec = spec
        self.session_index = session_index

    def _run(self, schedule: PowerCutSchedule, durable: bool):
        session = IntermittentSession(
            self.spec, self.session_index,
            supply=schedule.supply(),
            durable=durable, fresh_challenges=True)
        result = session.run()
        return session, result

    def probe(self, durable: bool) -> Optional[int]:
        """Reconnaissance: where does the ack window sit for this
        target?  (Naive and checkpointing tags have different cycle
        timelines — the NVM traffic shows up on the supply current.)"""
        _, result = self._run(PowerCutSchedule(), durable)
        schedules = adversarial_schedules(result.timeline,
                                          events=((TARGET_EVENT, ""),))
        schedule = schedules.get(TARGET_EVENT)
        return schedule.windows[0] if schedule else None

    @staticmethod
    def _harvest(session, result) -> List[Tuple[int, int]]:
        """Pair every response frame with the challenge that drew it.

        Challenges are issued immediately after each commitment frame
        lands, so the i-th ``R`` on the wire maps to the i-th entry of
        the reader's notebook; each ``s`` pairs with the most recent
        preceding challenge of its epoch.
        """
        issued = session.verifier.issued
        pairs: List[Tuple[int, int]] = []
        seen_r = 0
        current: Optional[Tuple[int, int]] = None
        for _sender, epoch, label, payload in result.wire:
            if label == "R":
                current = issued[seen_r] if seen_r < len(issued) else None
                seen_r += 1
            elif label == "s" and current is not None \
                    and current[0] == epoch:
                pairs.append((current[1],
                              int.from_bytes(payload, "big")))
        return pairs

    def attack(self, durable: bool) -> FieldCutOutcome:
        """Probe, cut, harvest, solve — against one target variant."""
        target = "checkpointing" if durable else "naive"
        cut_cycle = self.probe(durable)
        schedule = PowerCutSchedule.single_cut(cut_cycle) \
            if cut_cycle else PowerCutSchedule()
        session, result = self._run(schedule, durable)
        pairs = self._harvest(session, result)
        distinct = {s for _e, s in pairs}

        domain = get_curve(self.spec.curve)
        ring = domain.scalar_ring
        secret_x = session.secret_x
        recovered_r = recovered_x = None
        if len(pairs) >= 2:
            (e1, s1), (e2, s2) = pairs[0], pairs[1]
            if e1 != e2 and s1 != s2:
                # r = (s1 - s2) / (e1 - e2)
                de = ring.sub(e1, e2)
                recovered_r = ring.mul(ring.sub(s1, s2),
                                       pow(de, -1, domain.order))
                # d = xcoord(r * Y): the attacker knows its own key
                # pair, so Y's multiples are free to it.
                shared = montgomery_ladder(
                    domain.curve, recovered_r,
                    session.verifier.reader.public,
                    randomize_z=False)
                d = ring.reduce(shared.x)
                recovered_x = ring.sub(ring.sub(s1, d),
                                       ring.mul(e1, recovered_r))
        return FieldCutOutcome(
            target=target,
            cut_cycle=cut_cycle,
            responses_harvested=len(distinct),
            key_recovered=recovered_x is not None,
            recovered_r=recovered_r,
            recovered_x=recovered_x,
            secret_x=secret_x,
        )


def run_fieldcut_attack(
    spec: Optional[IntermittentSpec] = None,
    session_index: int = 0,
) -> Tuple[FieldCutOutcome, FieldCutOutcome]:
    """The full demonstration: the same attack against both targets.

    Returns ``(naive, checkpointing)`` outcomes — the first broken,
    the second intact, which is the whole argument for commit-before-
    use nonce checkpointing (DESIGN §12).
    """
    attacker = FieldCutAttacker(spec or IntermittentSpec(), session_index)
    return attacker.attack(durable=False), attacker.attack(durable=True)
