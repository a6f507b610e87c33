"""A scalar security score, so security can sit beside area and power.

The paper's thesis is that security is an extra *design dimension*;
a design-space explorer therefore needs security as an objective it
can rank and constrain.  :func:`score_design` turns a coprocessor
configuration into the fraction of modelled threats whose doors are
closed:

* the pyramid decides the baseline — a threat with no primary
  countermeasure in :func:`~repro.security.pyramid.pyramid_for_config`
  is an open door,
* operating below the nominal core voltage opens ``fault-attack``
  (reduced noise margins make glitch and brown-out injection easier,
  the classic low-voltage trade-off the paper's Section 6 warns
  about),
* a non-resistant white-box finding opens the threat the attack
  demonstrates, even when the pyramid claims coverage — measurement
  beats paperwork,
* each subsystem posture (battery-depletion defenses, checkpointing,
  session rekeying) adds one threat after the paper's eight.

The score is ``closed / total`` in [0, 1]; the paper's protected
design at nominal voltage scores 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..power.technology import TechnologyParams, UMC_130NM
from .pyramid import Posture, pyramid_for_config

__all__ = ["ATTACK_THREATS", "SecurityScore", "score_design"]

#: White-box attack name -> the pyramid threat it demonstrates.
ATTACK_THREATS = {
    "timing": "timing-attack",
    "spa": "spa",
    "dpa": "dpa",
    "tvla": "dpa",
}


@dataclass(frozen=True)
class SecurityScore:
    """Closed vs open threat doors of one design point."""

    closed: tuple
    open_doors: tuple
    vdd: float

    @property
    def total(self) -> int:
        return len(self.closed) + len(self.open_doors)

    @property
    def value(self) -> float:
        """Fraction of modelled threats closed, in [0, 1]."""
        if self.total == 0:
            return 1.0
        return len(self.closed) / self.total

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "closed": list(self.closed),
            "open": list(self.open_doors),
            "vdd": self.vdd,
        }

    def __str__(self) -> str:
        doors = ", ".join(self.open_doors) if self.open_doors else "none"
        return (f"{len(self.closed)}/{self.total} threats closed "
                f"(open: {doors})")


def score_design(config,
                 vdd: Optional[float] = None,
                 findings: Iterable = (),
                 technology: TechnologyParams = UMC_130NM,
                 postures: Sequence[Posture] = (),
                 ) -> SecurityScore:
    """Score one design point.

    Parameters
    ----------
    config:
        The :class:`~repro.arch.CoprocessorConfig` under evaluation.
    vdd:
        Core voltage of the operating point; below the technology's
        nominal voltage the fault-attack door opens.  None means
        nominal.
    findings:
        Optional white-box results — :class:`AttackFinding` objects or
        ``{"attack": ..., "resistant": ...}`` dicts.  A non-resistant
        finding opens the threat in :data:`ATTACK_THREATS`.
    postures:
        Optional subsystem :class:`~repro.security.pyramid.Posture`
        terms — from :func:`~repro.security.pyramid.defense_posture`
        (``battery-depletion``),
        :func:`~repro.security.pyramid.checkpoint_posture`
        (``power-interruption``) or
        :func:`~repro.security.pyramid.session_posture`
        (``key-compromise``).  Each appends its threat to the scored
        set in sequence order; the threat is open unless the posture
        deploys a primary countermeasure, and the posture's ``opens``
        are open too.  No postures keeps the paper's eight-threat
        score.
    """
    pyramid = pyramid_for_config(config, postures)
    open_doors = {t.name for t in pyramid.uncovered_threats()}
    for posture in postures:
        open_doors.update(posture.opens)
    if vdd is not None and vdd < technology.nominal_vdd:
        open_doors.add("fault-attack")
    for finding in findings:
        if isinstance(finding, dict):
            attack = finding.get("attack")
            resistant = finding.get("resistant")
        else:
            attack = finding.attack
            resistant = finding.resistant
        if not resistant and attack in ATTACK_THREATS:
            open_doors.add(ATTACK_THREATS[attack])
    order = [t.name for t in pyramid.threats]
    return SecurityScore(
        closed=tuple(n for n in order if n not in open_doors),
        open_doors=tuple(n for n in order if n in open_doors),
        vdd=technology.nominal_vdd if vdd is None else vdd,
    )
