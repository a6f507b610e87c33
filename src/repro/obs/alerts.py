"""Deterministic alert rules over ordered telemetry streams.

An :class:`AlertRule` is declarative — *which* series, *what* shape of
badness, *when* to clear — and an :class:`AlertEngine` evaluates a
rulebook over an ordered event stream (see
:mod:`repro.obs.stream`), emitting typed firing records.  Four rule
kinds cover the fleet's failure grammar:

* ``threshold`` — a sample exceeds a level (e.g. the derived
  ``session_uj_p99`` regressing past the honest-session tail);
* ``window_sum`` — the per-source sum inside one virtual window
  exceeds a level (e.g. µJ drained from one tag in one 0.5 s window
  exceeding the :class:`~repro.adversary.defense.EnergyBudget` cap —
  the battery-depletion signature, detected from telemetry alone);
* ``rate_of_change`` — a window sum exceeds ``threshold ×`` the
  previous window's sum (e.g. a shed-rate spike under an admission
  flood);
* ``invariant`` — any non-zero sample fires immediately (e.g. the
  ``nonce_reuse == 0`` invariant of :mod:`repro.intermittent`).

**Hysteresis.** A rule fires only after ``sustain`` consecutive
breaching evaluations and clears only when the value falls below
``clear_ratio × threshold`` — so a value oscillating at the line
produces one firing/clearing pair, not one per window.

**Determinism.** The engine enforces the stream's total order
(non-decreasing ``(vt, source, session)`` keys — feeding it unsorted
events raises :class:`AlertOrderingError` instead of silently
producing schedule-dependent logs), evaluates rules in rulebook order
and sources in first-seen (= sorted-stream) order, and rounds every
serialized float once.  Same seed, same rulebook → byte-identical
``alerts.json``, whatever the worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..jsonspec import JsonSpec
from .metrics import atomic_write_bytes

__all__ = ["ALERTS_NAME", "ALERTS_SCHEMA", "RULE_KINDS", "SEVERITIES",
           "AlertRule", "AlertRuleError", "AlertOrderingError",
           "AlertEngine", "default_rulebook", "write_alert_log",
           "load_alert_log", "render_alert_log"]

ALERTS_NAME = "alerts.json"
ALERTS_SCHEMA = 1

RULE_KINDS = ("threshold", "rate_of_change", "window_sum", "invariant")
SEVERITIES = ("info", "warning", "critical")


class AlertRuleError(ValueError):
    """A rule was declared inconsistently."""


class AlertOrderingError(RuntimeError):
    """Events reached the engine out of virtual-time order."""


@dataclass(frozen=True)
class AlertRule(JsonSpec):
    """One declarative rule; frozen so rulebooks are hashable specs."""

    name: str
    series: str
    kind: str
    threshold: float = 0.0
    window_s: float = 0.5
    clear_ratio: float = 0.8
    sustain: int = 1
    severity: str = "warning"
    description: str = ""

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise AlertRuleError(
                f"rule {self.name!r}: unknown kind {self.kind!r}; "
                f"known: {', '.join(RULE_KINDS)}")
        if self.severity not in SEVERITIES:
            raise AlertRuleError(
                f"rule {self.name!r}: unknown severity "
                f"{self.severity!r}; known: {', '.join(SEVERITIES)}")
        if self.window_s <= 0:
            raise AlertRuleError(
                f"rule {self.name!r}: window must be positive")
        if not 0.0 <= self.clear_ratio <= 1.0:
            raise AlertRuleError(
                f"rule {self.name!r}: clear ratio must be in [0, 1]")
        if self.sustain < 1:
            raise AlertRuleError(
                f"rule {self.name!r}: sustain must be at least 1")
        if self.kind != "invariant" and self.threshold <= 0:
            raise AlertRuleError(
                f"rule {self.name!r}: threshold must be positive")


class _RuleSourceState:
    __slots__ = ("window", "acc", "prev_sum", "streak", "firing")

    def __init__(self):
        self.window: Optional[int] = None
        self.acc = 0.0
        self.prev_sum: Optional[float] = None
        self.streak = 0
        self.firing = False


class AlertEngine:
    """Evaluates a rulebook over one ordered telemetry stream."""

    def __init__(self, rules: Sequence[AlertRule],
                 window_s: float = 0.5):
        self.rules = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise AlertRuleError("duplicate rule names in rulebook")
        self.window_s = window_s
        self._states: Dict[Tuple[str, str], _RuleSourceState] = {}
        self._records: List[dict] = []
        self._last_key: Optional[tuple] = None
        self._finalized = False

    # -- the fold ------------------------------------------------------

    def observe(self, event: dict) -> None:
        """Fold one event; events MUST arrive in sorted stream order."""
        if self._finalized:
            raise AlertOrderingError("engine already finalized")
        key = (event["vt"], event["source"], event["session"])
        if self._last_key is not None and key < self._last_key:
            raise AlertOrderingError(
                f"event {key} arrived after {self._last_key} — feed "
                "the engine through repro.obs.stream.sort_events")
        self._last_key = key
        for rule in self.rules:
            value = event["series"].get(rule.series)
            if value is None:
                continue
            self._observe_rule(rule, event, value)

    def _observe_rule(self, rule: AlertRule, event: dict,
                      value: float) -> None:
        state = self._state(rule, event["source"])
        if rule.kind == "invariant":
            if value != 0 and not state.firing:
                state.firing = True
                self._emit(rule, event["source"], "firing",
                           self._window(rule, event["vt"]),
                           event["vt"], value)
            return
        if rule.kind == "threshold":
            self._evaluate(rule, state, event["source"],
                           self._window(rule, event["vt"]),
                           event["vt"], value)
            return
        # window kinds: accumulate, evaluate when the window closes
        window = self._window(rule, event["vt"])
        if state.window is None:
            state.window = window
            state.acc = value
        elif window > state.window:
            self._close_window(rule, state, event["source"])
            state.window = window
            state.acc = value
        else:
            state.acc += value

    def _close_window(self, rule: AlertRule, state: _RuleSourceState,
                      source: str) -> None:
        window_sum = state.acc
        vt = (state.window + 1) * rule.window_s
        if rule.kind == "window_sum":
            self._evaluate(rule, state, source, state.window, vt,
                           window_sum)
        else:   # rate_of_change: this window vs the previous one
            prev = state.prev_sum
            if prev is not None and prev > 0:
                ratio = window_sum / prev
                self._evaluate(rule, state, source, state.window, vt,
                               ratio)
            state.prev_sum = window_sum
            return
        state.prev_sum = window_sum

    def _evaluate(self, rule: AlertRule, state: _RuleSourceState,
                  source: str, window: int, vt: float,
                  value: float) -> None:
        if value > rule.threshold:
            state.streak += 1
            if not state.firing and state.streak >= rule.sustain:
                state.firing = True
                self._emit(rule, source, "firing", window, vt, value)
        elif value <= rule.threshold * rule.clear_ratio:
            state.streak = 0
            if state.firing:
                state.firing = False
                self._emit(rule, source, "cleared", window, vt, value)
        # Between clear line and threshold: hysteresis band — hold
        # state, but a breach streak is no longer consecutive.
        else:
            state.streak = 0

    def _state(self, rule: AlertRule, source: str) -> _RuleSourceState:
        key = (rule.name, source)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _RuleSourceState()
        return state

    def _window(self, rule: AlertRule, vt: float) -> int:
        return int(vt / rule.window_s + 1e-9)

    def _emit(self, rule: AlertRule, source: str, transition: str,
              window: int, vt: float, value: float) -> None:
        self._records.append({
            "rule": rule.name,
            "series": rule.series,
            "kind": rule.kind,
            "severity": rule.severity,
            "source": source,
            "state": transition,
            "window": window,
            "vt": round(vt, 9),
            "value": round(value, 9),
            "threshold": rule.threshold,
        })

    def finalize(self) -> List[dict]:
        """Close every open window and return the full record log."""
        if not self._finalized:
            self._finalized = True
            for (rule_name, source), state in self._states.items():
                if state.window is None:
                    continue
                rule = next(r for r in self.rules
                            if r.name == rule_name)
                if rule.kind in ("window_sum", "rate_of_change"):
                    self._close_window(rule, state, source)
        return list(self._records)

    @property
    def firings(self) -> List[dict]:
        return [r for r in self._records if r["state"] == "firing"]


def default_rulebook(cap_uj: float = 150.0, window_s: float = 0.5,
                     p99_uj: float = 110.0, drain_surge: float = 4.0,
                     drain_sustain: int = 2,
                     shed_ratio: float = 3.0) -> Tuple[AlertRule, ...]:
    """The fleet's stock rulebook, sized for the TOY-B17 attack lab.

    Calibrated against measured lab traffic (bench T1 pins both
    sides).  An honest TOY-B17 session is a short burst: ~32 µJ median
    (≤ ~97 µJ p99 under 10 % loss) drained in ~25 ms.  A depletion
    flood inverts that shape — every bogus/replay session drags the
    tag through retransmission ladders and timeouts, costing
    127–240 µJ *per session* over ~3.3 s (324 µJ median under
    amplification).  Hence:

    * ``energy_session_p99`` at 110 µJ is the primary flood detector:
      above the honest tail (~97 µJ), below the cheapest flood session
      (~127 µJ), and per-session cost is the one signature arrival
      patterns cannot fake.
    * ``window_drain_exceeds_cap`` watches ``drain_uj`` — session
      energy pro-rated over elapsed windows by
      :func:`repro.obs.stream.spread_drain_events`, the same
      charge-as-you-go accounting
      :class:`~repro.adversary.defense.EnergyBudget` uses.  Honest
      arrival bursts legitimately exceed the raw 150 µJ cap (measured
      peak: 443 µJ in the lab's window 0 backlog — exactly the
      traffic the budget *sheds* when enabled), so the alert line
      sits at ``drain_surge ×`` cap, sustained for ``drain_sustain``
      windows: amplification-class burn, not admission-control.
    * a shed-rate spike and the ``nonce_reuse == 0`` invariant from
      :mod:`repro.intermittent` round out the book.

    With these defaults the book detects an undefended bogus/replay/
    amplification flood from telemetry alone and stays silent on the
    defense-free all-honest baseline.
    """
    return (
        AlertRule(
            name="window_drain_exceeds_cap",
            series="drain_uj", kind="window_sum",
            threshold=cap_uj * drain_surge, window_s=window_s,
            sustain=drain_sustain,
            severity="critical",
            description="per-window uJ drained from one tag exceeds "
                        f"{drain_surge:g}x the EnergyBudget cap for "
                        f"{drain_sustain} consecutive windows — "
                        "sustained-burn signature",
        ),
        AlertRule(
            name="energy_session_p99",
            series="session_uj_p99", kind="threshold",
            threshold=p99_uj, window_s=window_s,
            severity="critical",
            description="fleet-wide p99 of per-session tag uJ "
                        "regressed past the honest tail — "
                        "battery-depletion signature",
        ),
        AlertRule(
            name="shed_rate_spike",
            series="shed", kind="rate_of_change",
            threshold=shed_ratio, window_s=window_s,
            severity="warning",
            description="per-window shed count grew faster than "
                        f"{shed_ratio:g}x window over window",
        ),
        AlertRule(
            name="nonce_reuse_invariant",
            series="nonce_reuse", kind="invariant",
            severity="critical",
            description="a nonce was used twice on the wire — the "
                        "commit-before-use vault invariant is broken",
        ),
    )


def write_alert_log(path: str, rules: Sequence[AlertRule],
                    records: Sequence[dict]) -> dict:
    """Persist the typed alert log; returns the written payload."""
    by_rule: Dict[str, int] = {}
    for record in records:
        if record["state"] == "firing":
            by_rule[record["rule"]] = by_rule.get(record["rule"], 0) + 1
    payload = {
        "schema": ALERTS_SCHEMA,
        "rules": [rule.to_dict() for rule in rules],
        "records": list(records),
        "firings": sum(by_rule.values()),
        "firings_by_rule": {k: by_rule[k] for k in sorted(by_rule)},
    }
    atomic_write_bytes(path, json.dumps(payload, indent=1,
                                        sort_keys=True).encode())
    return payload


def load_alert_log(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("schema") != ALERTS_SCHEMA:
        raise AlertRuleError(
            f"alert log schema v{payload.get('schema')} unsupported "
            f"(reader is v{ALERTS_SCHEMA})")
    return payload


def render_alert_log(payload: dict) -> str:
    """The human view of one alert log."""
    records = payload.get("records", [])
    firings = payload.get("firings", 0)
    lines = [f"alerts: {firings} firing(s), "
             f"{len(payload.get('rules', []))} rule(s) evaluated"]
    if not records:
        lines.append("  no alerts — every rule stayed silent")
        return "\n".join(lines)
    lines.append(f"  {'rule':<28}{'sev':<10}{'state':<9}"
                 f"{'source':<14}{'window':>7}{'value':>12}"
                 f"{'threshold':>11}")
    for record in records:
        lines.append(
            f"  {record['rule']:<28}{record['severity']:<10}"
            f"{record['state']:<9}{record['source']:<14}"
            f"{record['window']:>7}{record['value']:>12.3f}"
            f"{record['threshold']:>11.3f}"
        )
    by_rule = payload.get("firings_by_rule", {})
    if by_rule:
        parts = ", ".join(f"{k} x{v}" for k, v in sorted(by_rule.items()))
        lines.append(f"  firing totals: {parts}")
    return "\n".join(lines)
