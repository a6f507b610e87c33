"""The location-privacy (tracking) game.

Section 2/4: "wireless tags ... can also be used to track patients and
therefore location privacy is an important concern", and Vaudenay [20]
showed strong privacy needs public-key crypto — but not every PKC
protocol delivers it.

The game formalizes tracking as transcript linkage: the adversary
watches two tags run many sessions and must tell which transcripts
belong to the same tag.

* Against **Schnorr**, the adversary wins outright: each transcript
  algebraically reveals the tag's public key
  (:func:`~repro.protocols.schnorr.extract_public_key`).
* Against **Peeters–Hermans**, transcripts are fresh randomized points
  and scalars; without the reader's secret ``y`` the linkage
  distinguisher degrades to coin flipping.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ec.curves import NamedCurve
from .peeters_hermans import PeetersHermansReader, PeetersHermansTag
from .schnorr import SchnorrSession, SchnorrTag, SchnorrVerifier, \
    extract_public_key, run_schnorr_identification

__all__ = ["LinkageGameResult", "schnorr_linkage_game",
           "peeters_hermans_linkage_game"]


@dataclass(frozen=True)
class LinkageGameResult:
    """Outcome of a tracking experiment.

    ``advantage`` is |accuracy - 1/2| * 2 in [0, 1]: 1 means perfect
    tracking, ~0 means the protocol hides the tag.
    """

    trials: int
    correct: int

    @property
    def accuracy(self) -> float:
        """Fraction of correct linkage guesses."""
        return self.correct / self.trials

    @property
    def advantage(self) -> float:
        """Distinguishing advantage over random guessing."""
        return abs(2.0 * self.accuracy - 1.0)


def schnorr_linkage_game(domain: NamedCurve, rng,
                         trials: int = 40) -> LinkageGameResult:
    """Track Schnorr tags by extracting public keys from transcripts.

    Each trial: two known tags each produce a reference session; a
    challenge session is produced by one of them (coin flip); the
    adversary links by comparing extracted public keys.
    """
    ring = domain.scalar_ring
    tag_a = SchnorrTag(domain, ring.random_scalar(rng))
    tag_b = SchnorrTag(domain, ring.random_scalar(rng))
    verifier_a = SchnorrVerifier(domain, tag_a.public)
    verifier_b = SchnorrVerifier(domain, tag_b.public)

    def session(tag, verifier) -> SchnorrSession:
        return run_schnorr_identification(tag, verifier, rng)

    correct = 0
    for _ in range(trials):
        reference = extract_public_key(domain, session(tag_a, verifier_a))
        coin = rng.getrandbits(1)
        challenge = session(tag_a, verifier_a) if coin else session(
            tag_b, verifier_b
        )
        guess = 1 if extract_public_key(domain, challenge) == reference else 0
        if guess == coin:
            correct += 1
    return LinkageGameResult(trials, correct)


def peeters_hermans_linkage_game(domain: NamedCurve, rng,
                                 trials: int = 40) -> LinkageGameResult:
    """Attempt the same tracking strategy against Peeters–Hermans.

    The best transcript-only strategy analogous to the Schnorr attack
    is to compute the would-be identity point s*P - e*R and compare —
    but without ``d`` (which requires the reader secret ``y``) the
    result is blinded by the random d*P term, so the comparison is
    noise and the advantage collapses.
    """
    ring = domain.scalar_ring
    curve = domain.curve
    reader = PeetersHermansReader(domain, ring.random_scalar(rng))
    tag_a = PeetersHermansTag(domain, ring.random_scalar(rng), reader.public)
    tag_b = PeetersHermansTag(domain, ring.random_scalar(rng), reader.public)
    reader.register(0, tag_a.identity_point)
    reader.register(1, tag_b.identity_point)

    correct = 0
    for _ in range(trials):
        # Observe one session of each tag, then a challenge session.
        coin = rng.getrandbits(1)
        challenge_tag = tag_a if coin == 0 else tag_b
        # Eavesdrop actual protocol values.
        r_a = tag_a.commit(rng)
        e_a = reader.challenge(rng)
        s_a = tag_a.respond(e_a, rng)
        r_c = challenge_tag.commit(rng)
        e_c = reader.challenge(rng)
        s_c = challenge_tag.respond(e_c, rng)
        # Linkage feature: s*P - e*R = (d + x)*P, blinded by fresh d.
        feature_a = curve.subtract(
            curve.multiply(s_a, domain.generator),
            curve.multiply(e_a, r_a),
        )
        feature_c = curve.subtract(
            curve.multiply(s_c, domain.generator),
            curve.multiply(e_c, r_c),
        )
        guess = 0 if feature_a == feature_c else rng.getrandbits(1)
        if guess == coin:
            correct += 1
    return LinkageGameResult(trials, correct)
