"""Key generation on the named binary curves.

The public point is computed through the Montgomery ladder, the
side-channel-hardened code path the paper advocates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import NamedCurve
from .ladder import montgomery_ladder
from .point import AffinePoint

__all__ = ["KeyPair", "generate_keypair"]


@dataclass(frozen=True)
class KeyPair:
    """An EC key pair: private scalar d and public point Q = d*G."""

    domain: NamedCurve
    private: int
    public: AffinePoint

    def __repr__(self) -> str:
        # Never print the private scalar.
        return f"KeyPair({self.domain.name}, public={self.public!r})"


def generate_keypair(domain: NamedCurve, rng) -> KeyPair:
    """Generate a key pair on the given named curve.

    The private scalar is uniform in [1, n-1]; the public point is
    computed with the randomized Montgomery ladder.
    """
    d = domain.scalar_ring.random_scalar(rng)
    q = montgomery_ladder(domain.curve, d, domain.generator, rng=rng)
    return KeyPair(domain, d, q)
