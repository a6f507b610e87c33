"""Campaign specification: one JSON-serializable design point.

A :class:`CampaignSpec` pins down *everything* that determines a
side-channel campaign's measurements: the device configuration, the
evaluation scenario, the campaign size and sharding, the virtual
oscilloscope's noise level, and a single master seed.  Every random
choice in the campaign — the secret key, each trace's base point, each
trace's Z-randomization, the measurement noise — is derived from that
seed and the shard index alone, so a 20 000-trace campaign acquired on
one worker is bit-for-bit identical to the same campaign acquired on
sixteen, and an interrupted campaign resumes without any drift.

The derivation uses SHA-256 over ``(seed, stream-label, shard-index)``
rather than Python's ``hash`` (randomized per process) or ad-hoc
``seed + offset`` arithmetic (streams collide), mirroring numpy's
``SeedSequence`` philosophy with a stdlib-only construction.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from ..arch.clockgate import ClockGatingPolicy
from ..arch.control import BalancedEncoding, UnbalancedEncoding
from ..arch.coprocessor import CoprocessorConfig, EccCoprocessor
from ..ec.curves import get_curve
from ..jsonspec import JsonSpec, SpecError

__all__ = ["SCHEMA_VERSION", "CampaignSpec", "derive_seed", "derive_rng",
           "SCENARIOS"]

#: Manifest/spec schema version; bumped on incompatible layout changes.
SCHEMA_VERSION = 1

#: The Section 7 evaluation scenarios: Z = 1, random Z recorded for the
#: white-box adversary, random Z kept secret (see acquire.acquire_in_memory).
SCENARIOS = ("unprotected", "known_randomness", "protected")

_MUX_ENCODINGS = {"balanced": BalancedEncoding, "unbalanced": UnbalancedEncoding}


def derive_seed(master_seed: int, stream: str, index: int = 0) -> int:
    """A 64-bit child seed for one named stream of one shard."""
    message = f"repro.campaign/{master_seed}/{stream}/{index}".encode()
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


def derive_rng(master_seed: int, stream: str, index: int = 0) -> random.Random:
    """A stdlib RNG on its own derived stream."""
    return random.Random(derive_seed(master_seed, stream, index))


@dataclass(frozen=True)
class CampaignSpec(JsonSpec):
    """Everything that determines a campaign's traces.

    Attributes
    ----------
    n_traces, shard_size:
        Campaign size and how it is cut into shards; the last shard may
        be short.
    scenario:
        ``"unprotected"`` (Z = 1), ``"known_randomness"`` (random Z,
        recorded per trace for the white-box adversary) or
        ``"protected"`` (random Z, secret).
    seed:
        Master seed; see the module docstring for the derivation tree.
    key:
        Explicit secret scalar, or None to derive one from ``seed``
        (stream ``"key"``).
    max_iterations:
        Ladder-iteration truncation forwarded to the coprocessor (DPA
        experiments only need the leading bits); None runs full length.
    noise_sigma:
        Virtual-oscilloscope noise, in toggle units.
    curve, digit_size, dedicated_squarer, fetch_overhead, mux_encoding,
    clock_gating, input_isolation, glitch_factor:
        The serializable subset of :class:`CoprocessorConfig`
        (``randomize_z`` is implied by ``scenario``).
    """

    n_traces: int
    shard_size: int = 256
    scenario: str = "protected"
    seed: int = 0
    key: Optional[int] = None
    max_iterations: Optional[int] = None
    noise_sigma: float = 38.0
    curve: str = "K-163"
    digit_size: int = 4
    dedicated_squarer: bool = False
    fetch_overhead: int = 8
    mux_encoding: str = "balanced"
    clock_gating: str = "always_on"
    input_isolation: bool = True
    glitch_factor: float = 0.0
    schema_version: int = dataclass_field(default=SCHEMA_VERSION)

    #: :meth:`digest` is stamped into failure logs and error messages,
    #: so an event can always be traced back to its spec.
    _digest_chars = 16

    def __post_init__(self):
        if self.n_traces < 1:
            raise ValueError("a campaign needs at least one trace")
        if self.shard_size < 1:
            raise ValueError("shard size must be positive")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.mux_encoding not in _MUX_ENCODINGS:
            raise ValueError(f"unknown mux encoding {self.mux_encoding!r}")
        ClockGatingPolicy(self.clock_gating)  # raises on unknown policy
        try:
            get_curve(self.curve)
        except KeyError as exc:
            raise ValueError(str(exc)) from None
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"spec schema v{self.schema_version} is not supported "
                f"by this reader (v{SCHEMA_VERSION})"
            )

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shards covering ``n_traces``."""
        return (self.n_traces + self.shard_size - 1) // self.shard_size

    def shard_trace_count(self, shard_index: int) -> int:
        """Trace count of one shard (the last one may be short)."""
        if not 0 <= shard_index < self.n_shards:
            raise ValueError("shard index out of range")
        start = shard_index * self.shard_size
        return min(self.shard_size, self.n_traces - start)

    @property
    def randomize_z(self) -> bool:
        """Whether the Z-randomization countermeasure is active."""
        return self.scenario != "unprotected"

    # ------------------------------------------------------------------
    # device reconstruction
    # ------------------------------------------------------------------

    def coprocessor_config(self) -> CoprocessorConfig:
        """The device-under-test configuration this spec describes."""
        return CoprocessorConfig(
            domain=get_curve(self.curve),
            digit_size=self.digit_size,
            dedicated_squarer=self.dedicated_squarer,
            fetch_overhead=self.fetch_overhead,
            mux_encoding=_MUX_ENCODINGS[self.mux_encoding](),
            clock_gating=ClockGatingPolicy(self.clock_gating),
            input_isolation=self.input_isolation,
            glitch_factor=self.glitch_factor,
            randomize_z=self.randomize_z,
        )

    def build_coprocessor(self) -> EccCoprocessor:
        """A fresh device-under-test for this spec."""
        return EccCoprocessor(self.coprocessor_config())

    def resolve_key(self) -> int:
        """The campaign's secret scalar (explicit, or seed-derived)."""
        if self.key is not None:
            return self.key
        ring = get_curve(self.curve).scalar_ring
        return ring.random_scalar(derive_rng(self.seed, "key"))

    # ------------------------------------------------------------------
    # serialization: the key travels as hex
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        d = super().to_dict()
        if self.key is not None:
            d["key"] = hex(self.key)
        return d

    @classmethod
    def from_dict(cls, payload) -> "CampaignSpec":
        if isinstance(payload, dict) and isinstance(payload.get("key"), str):
            try:
                payload = {**payload, "key": int(payload["key"], 16)}
            except ValueError:
                raise SpecError(f"CampaignSpec.key is not hex: "
                                f"{payload['key']!r}") from None
        return super().from_dict(payload)
