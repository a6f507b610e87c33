"""Seeded and adversarial power-cut injection.

Two kinds of chaos:

* **seeded** — window lengths drawn from the labelled-SHA-256 stream
  of :func:`~.supply.derive_supply_value`, so a thousand-schedule matrix
  test is reproducible to the cycle;
* **adversarial** — cuts *aimed* at the protocol's tender spots.  A
  probe run with stable power records the cycle timeline of every
  named event (nonce staged, commit marker landing, first frame,
  consumed marker, response transmission); the schedules derived from
  it cut exactly one cycle before each event, which places the
  brownout mid-commit, between nonce draw and first frame, and so on.

The invariant either way (tested in ``tests/intermittent``): the
session completes with a byte-identical outcome digest, or aborts
typed-cleanly — and no nonce pairs with two distinct responses on the
wire, ever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .engine import IntermittentResult, IntermittentSpec, \
    run_intermittent_session
from .supply import PowerSupply, derive_supply_value

__all__ = ["PowerCutSchedule", "probe_timeline", "adversarial_schedules",
           "run_with_schedule", "ADVERSARIAL_EVENTS"]

#: Timeline events worth aiming a cut at, and why.
ADVERSARIAL_EVENTS: Tuple[Tuple[str, str], ...] = (
    ("nonce-committed", "mid-commit of the nonce record"),
    ("R-sent", "between nonce commit and the first frame"),
    ("e-received", "mid-reception of the challenge"),
    ("response-staged", "mid-stage of the consumed marker"),
    ("response-committed", "mid-commit of the consumed marker"),
    ("s-sent", "between the consumed commit and the response frame"),
    ("ack-received", "after the response frame, before the ack lands"),
    ("done-committed", "between the acknowledgement and the final record"),
)


@dataclass(frozen=True)
class PowerCutSchedule:
    """A finite list of power-on window lengths (cycles)."""

    windows: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "windows",
                           tuple(int(w) for w in self.windows))
        for w in self.windows:
            if w < 1:
                raise ValueError("every window needs at least 1 cycle")

    @classmethod
    def seeded(cls, seed: int, session_index: int, cuts: int,
               mean_on_cycles: int = 60_000,
               jitter: float = 0.9) -> "PowerCutSchedule":
        """``cuts`` windows jittered around a mean, fully derived."""
        if cuts < 0:
            raise ValueError("cut count must be non-negative")
        windows = []
        for index in range(cuts):
            unit = derive_supply_value(seed, "chaos", session_index,
                                       index) / 2.0 ** 64
            scale = 1.0 + jitter * (2.0 * unit - 1.0)
            windows.append(max(1, int(round(mean_on_cycles * scale))))
        return cls(windows=tuple(windows))

    @classmethod
    def single_cut(cls, at_cycle: int) -> "PowerCutSchedule":
        """One adversarially placed cut, then stable power."""
        return cls(windows=(at_cycle,))

    def supply(self) -> PowerSupply:
        return PowerSupply(self.windows)


def run_with_schedule(spec: IntermittentSpec, session_index: int,
                      schedule: PowerCutSchedule,
                      durable: bool = True,
                      fresh_challenges: bool = False) -> IntermittentResult:
    """One session under one cut schedule."""
    return run_intermittent_session(
        spec, session_index, supply=schedule.supply(),
        durable=durable, fresh_challenges=fresh_challenges)


def probe_timeline(spec: IntermittentSpec,
                   session_index: int = 0) -> List[Tuple[int, str]]:
    """The event timeline of an uninterrupted run (the attacker's
    reconnaissance pass — everything on it is observable power
    analysis or radio traffic)."""
    result = run_with_schedule(spec, session_index, PowerCutSchedule())
    return result.timeline


def adversarial_schedules(
    timeline: List[Tuple[int, str]],
    events: Optional[Tuple[Tuple[str, str], ...]] = None,
) -> Dict[str, PowerCutSchedule]:
    """One single-cut schedule per tender spot on a probe timeline.

    Each schedule ends its first window one cycle *before* the named
    event's cycle, so the brownout lands inside the operation that
    would have completed at that cycle (the commit marker, the frame
    transmission, the phase record).  Events the timeline never
    reached are skipped.
    """
    cycles = {}
    for cycle, label in timeline:
        cycles.setdefault(label, cycle)
    schedules: Dict[str, PowerCutSchedule] = {}
    for label, _why in (events or ADVERSARIAL_EVENTS):
        cycle = cycles.get(label)
        if cycle is None or cycle < 2:
            continue
        schedules[label] = PowerCutSchedule.single_cut(cycle - 1)
    return schedules
