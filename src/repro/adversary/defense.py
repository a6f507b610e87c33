"""Tag-side defenses against battery-depletion adversaries.

The IMD "Tilting at Windmills" framing: for an implant the deadliest
adversary is not one that breaks the cryptography but one that makes
the tag *run* it until the battery dies.  The defenses here make the
tag degrade gracefully instead:

* :class:`EnergyBudget` — a per-window µJ cap on protocol work.  Every
  joule the protocol layer would spend (point multiplications, every
  transmitted and received bit, retries included) is charged against
  the current window; a charge that would exceed the cap raises
  :class:`~.errors.BudgetExhaustedError` *before* the energy is spent,
  so a flood drains at most ``cap_uj`` per window.
* :class:`WakeUpRadio` — zero-power gating.  The main radio and the
  ECC core stay dark until a wake message carrying an authenticated
  token (derived from a shared wake key) arrives; verifying a bogus
  wake costs only the nanowatt wake receiver's listen energy, which is
  deliberately budget-exempt (the wake receiver is the part that is
  always on).
* restart throttling — :class:`DefenseConfig` can scale the session
  layer's seeded epoch backoff and tighten the epoch budget, so a tag
  under attack retries *slower*, not harder.

:data:`DEFENSE_SETS` names the configurations the DSE security axis
scores (mirroring :data:`repro.dse.space.COUNTERMEASURE_SETS`), so
"gating vs backoff vs budget cap" re-prices through the existing
Pareto machinery.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..jsonspec import JsonSpec
from .errors import BudgetExhaustedError, DefenseConfigError

__all__ = ["DEFENSE_SETS", "DefenseConfig", "EnergyBudget",
           "WakeUpRadio", "WAKE_TOKEN_BYTES", "defense_config"]

#: Wire size of one wake token (also the wake frame's payload).
WAKE_TOKEN_BYTES = 8

#: Named defense configurations -> DefenseConfig keyword overrides.
#: The knobs the bench A3 table and the DSE defense axis sweep; the
#: caps are sized for the TOY-B17 attack-lab sessions: one honest
#: session costs ~32 uJ on the tag, so 150 uJ per 0.5 s window admits
#: a handful of bunched legitimate sessions while bounding a flood's
#: drain an order of magnitude below the undefended peak (bench A3).
DEFENSE_SETS = {
    "none": {},
    "budget-cap": {"budget_cap_uj": 150.0, "budget_window_s": 0.5},
    "wake-gating": {"wake_gating": True},
    "backoff": {"restart_backoff_scale": 4.0, "max_session_epochs": 3},
    "full": {"budget_cap_uj": 150.0, "budget_window_s": 0.5,
             "wake_gating": True, "restart_backoff_scale": 4.0,
             "max_session_epochs": 3},
}


@dataclass(frozen=True)
class DefenseConfig(JsonSpec):
    """Every knob of the tag's graceful-degradation posture.

    ``budget_cap_uj == 0`` disables the energy budget; ``wake_gating``
    False means any wake (even a bogus one) powers the protocol layer
    up.  ``max_session_epochs == 0`` defers to the retransmission
    policy's own epoch budget.
    """

    name: str = "none"
    budget_cap_uj: float = 0.0
    budget_window_s: float = 0.5
    wake_gating: bool = False
    wake_rx_uj: float = 0.05
    restart_backoff_scale: float = 1.0
    max_session_epochs: int = 0

    def __post_init__(self):
        if self.budget_cap_uj < 0:
            raise DefenseConfigError("budget cap must be non-negative")
        if self.budget_window_s <= 0:
            raise DefenseConfigError("budget window must be positive")
        if self.wake_rx_uj < 0:
            raise DefenseConfigError("wake rx cost must be non-negative")
        if self.restart_backoff_scale < 1.0:
            raise DefenseConfigError(
                "backoff scale below 1 retries *faster* under attack")
        if self.max_session_epochs < 0:
            raise DefenseConfigError("epoch cap must be non-negative")

    @property
    def budget_enabled(self) -> bool:
        return self.budget_cap_uj > 0

    def budget(self) -> "Optional[EnergyBudget]":
        """A fresh budget guard, or None when the cap is disabled."""
        if not self.budget_enabled:
            return None
        return EnergyBudget(self.budget_cap_uj, self.budget_window_s)


def defense_config(name: str, **overrides) -> DefenseConfig:
    """Resolve a named defense set (plus overrides) to a config."""
    if name not in DEFENSE_SETS:
        known = ", ".join(sorted(DEFENSE_SETS))
        raise DefenseConfigError(
            f"unknown defense set {name!r}; known: {known}")
    kwargs = dict(DEFENSE_SETS[name])
    kwargs.update(overrides)
    return DefenseConfig(name=name, **kwargs)


#: Relative tolerance absorbing binary-float edge cases at the budget's
#: boundaries: a charge landing *exactly* on the cap must succeed even
#: after many accumulated charges (0.1 is not representable, so the
#: running sum can sit one ulp above the cap), and a clock sitting
#: exactly on a window boundary must open the new window even when the
#: quotient rounds just below the integer (0.3 / 0.1 == 2.999...96).
_EDGE_RTOL = 1e-9


class EnergyBudget:
    """A per-window µJ cap on the tag's protocol work.

    Windows are fixed-width slices of the session layer's virtual
    clock (``window = floor(now / window_s)``); the spend resets when
    the clock crosses into a new window.  :meth:`charge` is
    all-or-nothing: a charge that would exceed the cap raises
    :class:`~.errors.BudgetExhaustedError` and spends *nothing* — the
    whole point is that refused work costs no energy.  Spending exactly
    the remaining budget succeeds; both boundary comparisons carry
    :data:`_EDGE_RTOL` so float representation error never turns an
    exact-cap spend or an exact-boundary rollover into a refusal.
    """

    def __init__(self, cap_uj: float, window_s: float = 0.5):
        if cap_uj <= 0:
            raise DefenseConfigError("budget cap must be positive")
        if window_s <= 0:
            raise DefenseConfigError("budget window must be positive")
        self.cap_uj = cap_uj
        self.window_s = window_s
        self.window_index = 0
        self.window_spent_uj = 0.0
        self.total_spent_uj = 0.0
        self.peak_window_uj = 0.0
        self.refusals = 0

    def _roll(self, now: float) -> None:
        index = int(now / self.window_s + _EDGE_RTOL)
        if index > self.window_index:
            self.window_index = index
            self.window_spent_uj = 0.0

    def charge(self, uj: float, now: float) -> None:
        """Spend ``uj`` in the window containing ``now``, or refuse."""
        if uj < 0:
            raise DefenseConfigError("cannot charge negative energy")
        self._roll(now)
        if self.window_spent_uj + uj > self.cap_uj * (1.0 + _EDGE_RTOL):
            self.refusals += 1
            raise BudgetExhaustedError(
                f"energy budget exhausted: {uj:.2f} uJ requested with "
                f"{self.cap_uj - self.window_spent_uj:.2f} uJ left of "
                f"{self.cap_uj:g} uJ in window {self.window_index}",
                window_index=self.window_index,
                spent_uj=self.window_spent_uj,
                cap_uj=self.cap_uj,
            )
        self.window_spent_uj += uj
        self.total_spent_uj += uj
        self.peak_window_uj = max(self.peak_window_uj,
                                  self.window_spent_uj)


class WakeUpRadio:
    """Authenticated wake-up gating for the zero-power listen path.

    The tag and its legitimate readers share ``key``; a wake message
    is ``token(session_id)``, an 8-byte truncation of SHA-256 over the
    labelled key/session tuple.  An adversary without the key cannot
    produce a verifying token, so every bogus wake is refused at wake-
    receiver cost — the protocol layer (and its µJ) never powers up.

    Deterministic by construction: no clocks, no nonces — the same
    (key, session) always yields the same token, which is what keeps
    attack soaks byte-identical across worker counts.
    """

    def __init__(self, key: bytes):
        if not key:
            raise DefenseConfigError("wake key must be non-empty")
        self.key = bytes(key)
        self.accepted = 0
        self.rejected = 0

    @staticmethod
    def derive_key(seed: int, tag_index: int = 0) -> bytes:
        """The fleet's wake key for one tag, derived from the seed."""
        message = f"repro.adversary/wake-key/{seed}/{tag_index}".encode()
        return hashlib.sha256(message).digest()[:16]

    def token(self, session_id: int) -> bytes:
        message = (b"repro.adversary/wake-token/" + self.key
                   + session_id.to_bytes(8, "big"))
        return hashlib.sha256(message).digest()[:WAKE_TOKEN_BYTES]

    def verify(self, session_id: int, token: bytes) -> bool:
        ok = token == self.token(session_id)
        if ok:
            self.accepted += 1
        else:
            self.rejected += 1
        return ok
