"""Sharded, digest-verified enrollment of a tag fleet.

The paper's private-identification protocol (Figure 2) requires the
reader to hold every enrolled tag's public point ``X = x*P`` and to
search that set on each identification.  At fleet scale (10^6 tags,
ROADMAP item 2) the fleet is not a Python dict: it is a directory of
fixed-width binary shards, each carrying a SHA-256 digest, built by
the campaign layer's :class:`~repro.campaign.supervisor.ShardSupervisor`
so enrollment survives worker crashes and detects corrupt shards the
same way trace acquisition does.

Determinism contract: the whole fleet is a pure function of the
:class:`EnrollmentSpec` — tag ``i``'s secret is derived from the spec
seed, so any worker can (re)build any shard independently and two
enrollments of the same spec are byte-identical.

A note on TOY-B17 scale: the toy group order is n = 65587, so there
are only n-1 = 65586 distinct nonzero secrets.  A 10^6-tag fleet
therefore *forces* secret collisions; two colliding tags share a
public point and are cryptographically indistinguishable to the
reader.  The canonical identity of a record is the lowest enrolled
identity that maps to it (``i mod (n-1)`` for the incremental
assignment below), and every lookup in this package returns canonical
identities.  On a production curve (K-163) collisions never occur and
canonical == enrolled.

Incremental enrollment: secrets are assigned consecutively
(``sec(i+1) = sec(i) + 1`` mod the nonzero range), so inside a shard
each public point is the previous point plus ``P`` — one full scalar
multiplication per *shard*, one point addition per *tag*.  That turns
a ~1.4 ms multiply per tag into a ~150 µs add per tag and makes a
10^6-tag enrollment tractable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterator, List, Optional, Tuple

from ..campaign.chaos import (CHAOS_CRASH_EXIT_CODE, ChaosConfig,
                              ChaosInjectedError)
from ..campaign.store import file_digest
from ..channel.frame import compress_point, decompress_point, \
    point_width_bytes
from ..ec.curves import get_curve
from ..ec.point import AffinePoint
from ..jsonspec import JsonSpec, _check_envelope
from ..obs.metrics import atomic_write_bytes
from .errors import EnrollmentError
from ..protocols.database import TagDatabase

__all__ = ["EnrollmentError", "EnrollmentSpec", "EnrollmentReport",
           "EnrollmentStore", "ShardedTagDatabase", "enroll_fleet",
           "enroll_shard", "MANIFEST_NAME"]

MANIFEST_NAME = "enrollment.json"
_SCHEMA_VERSION = 1


def _derive_scalar(seed: int, label: str, order: int) -> int:
    """A deterministic nonzero scalar mod ``order`` from the spec seed."""
    material = f"repro.server.enroll/{seed}/{label}".encode()
    digest = hashlib.sha256(material).digest()
    return 1 + int.from_bytes(digest, "big") % (order - 1)


@dataclass(frozen=True)
class EnrollmentSpec(JsonSpec):
    """Everything that determines a fleet, and nothing else.

    ``digest()`` binds stores to soaks: a soak records the spec digest
    of the fleet it ran against, and :class:`EnrollmentStore` refuses
    a manifest whose digest disagrees with its spec.
    """

    tags: int
    curve: str = "TOY-B17"
    shard_size: int = 65536
    seed: int = 0
    schema_version: int = _SCHEMA_VERSION

    def __post_init__(self):
        if self.tags < 1:
            raise EnrollmentError("fleet needs at least one tag")
        if self.shard_size < 1:
            raise EnrollmentError("shard_size must be positive")
        if self.schema_version != _SCHEMA_VERSION:
            raise EnrollmentError(
                f"unknown enrollment schema v{self.schema_version} "
                f"(this build reads v{_SCHEMA_VERSION})"
            )

    # -- derived crypto ------------------------------------------------

    def domain(self):
        return get_curve(self.curve)

    def record_width(self) -> int:
        return point_width_bytes(self.domain().field.m)

    def base_secret(self) -> int:
        """Secret of identity 0; later identities count up from it."""
        return _derive_scalar(self.seed, "x0", self.domain().order)

    def reader_secret(self) -> int:
        """The reader's private key ``y`` for this fleet."""
        return _derive_scalar(self.seed, "y", self.domain().order)

    def secret_for(self, identity: int) -> int:
        """Tag ``identity``'s secret: consecutive in the nonzero range
        ``[1, n-1]`` so shard enrollment is incremental."""
        if not 0 <= identity < self.tags:
            raise EnrollmentError(f"identity {identity} outside fleet "
                                  f"of {self.tags}")
        nonzero = self.domain().order - 1
        return 1 + (self.base_secret() - 1 + identity) % nonzero

    def canonical_identity(self, identity: int) -> int:
        """Lowest enrolled identity sharing ``identity``'s secret
        (collisions are forced when ``tags > order - 1``)."""
        return identity % (self.domain().order - 1)

    # -- layout --------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return (self.tags + self.shard_size - 1) // self.shard_size

    def shard_count(self, shard_index: int) -> int:
        start = shard_index * self.shard_size
        return min(self.shard_size, self.tags - start)

    @staticmethod
    def shard_filename(shard_index: int) -> str:
        return f"tags-{shard_index:05d}.bin"


# ----------------------------------------------------------------------
# the worker task
# ----------------------------------------------------------------------

def enroll_shard(spec_dict: dict, directory: str, shard_index: int,
                 attempt: int, chaos_dict: Optional[dict]) -> dict:
    """Build one shard of the fleet: the supervised worker task.

    Module-level and dict-in/dict-out so it crosses the ``spawn``
    pickle boundary.  The returned record carries ``artifacts`` so the
    supervisor re-hashes the shard file after completion — a worker
    that lies about its bytes (the corrupt fault below) is caught by
    that independent check, exactly as in trace acquisition.
    """
    spec = EnrollmentSpec.from_dict(spec_dict)
    if not 0 <= shard_index < spec.num_shards:
        raise EnrollmentError(f"shard {shard_index} outside fleet of "
                              f"{spec.num_shards} shards")

    chaos = None if chaos_dict is None else ChaosConfig.from_dict(chaos_dict)
    if chaos is not None:
        fault = chaos.execution_fault(shard_index, attempt)
        if fault == "crash":
            # Die mid-write: stale .tmp, no record, nonzero exit.
            tmp = os.path.join(directory,
                               spec.shard_filename(shard_index) + ".tmp")
            with open(tmp, "wb") as f:
                f.write(b"chaos: torn enrollment\x00" * 4)
            os._exit(CHAOS_CRASH_EXIT_CODE)
        elif fault == "hang":
            time.sleep(chaos.hang_seconds)
        elif fault == "error":
            raise ChaosInjectedError(
                f"injected enrollment failure (shard {shard_index}, "
                f"attempt {attempt})"
            )
        elif fault == "slow":
            time.sleep(chaos.slow_seconds)

    domain = spec.domain()
    curve, generator = domain.curve, domain.generator
    nonzero = domain.order - 1
    start = shard_index * spec.shard_size
    count = spec.shard_count(shard_index)

    # One naive multiply anchors the shard; every further tag is one
    # point addition (consecutive secrets).  At a secret wrap
    # (n-1 -> 1) the next point is P itself, skipping infinity.
    secret = spec.secret_for(start)
    point = curve.multiply_naive(secret, generator)
    out = bytearray()
    for _ in range(count):
        out += compress_point(curve, point)
        if secret == nonzero:
            secret = 1
            point = generator
        else:
            secret += 1
            point = curve.add(point, generator)

    name = spec.shard_filename(shard_index)
    path = os.path.join(directory, name)
    atomic_write_bytes(path, bytes(out))
    digest = file_digest(path)

    if chaos is not None and chaos.corrupts(shard_index, attempt):
        # Flip a byte *after* the digest: the record now lies about
        # the bytes on disk; only the supervisor's re-hash notices.
        with open(path, "r+b") as f:
            f.seek(0)
            byte = f.read(1) or b"\x00"
            f.seek(0)
            f.write(bytes([byte[0] ^ 0xFF]))

    return {
        "shard": shard_index,
        "file": name,
        "sha256": digest,
        "count": count,
        "artifacts": [(name, digest)],
    }


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

@dataclass
class EnrollmentReport:
    """What one :func:`enroll_fleet` run accomplished."""

    spec_digest: str
    directory: str
    tags: int
    shards_total: int
    shards_built: int
    shards_reused: int
    quarantined: List[int] = dataclass_field(default_factory=list)
    retried_attempts: int = 0

    @property
    def complete(self) -> bool:
        return not self.quarantined


def _sweep_stale_tmp(directory: str) -> None:
    for name in os.listdir(directory):
        if name.startswith("tags-") and name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass


def _read_manifest(path: str) -> dict:
    """The fleet manifest at ``path``; a malformed envelope raises
    :class:`EnrollmentError` naming the manifest and the key."""
    with open(path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    _check_envelope(manifest, path, EnrollmentError, {
        "shards": (
            "a list of objects with int 'shard' and 'count' and str "
            "'file' and 'sha256'",
            lambda entry: isinstance(entry, dict)
            and type(entry.get("shard")) is int
            and type(entry.get("count")) is int
            and isinstance(entry.get("file"), str)
            and isinstance(entry.get("sha256"), str)),
    }, keys=("spec", "spec_digest"))
    return manifest


def enroll_fleet(directory: str, spec: EnrollmentSpec, *,
                 workers: Optional[int] = None,
                 chaos: Optional[ChaosConfig] = None,
                 policy=None,
                 on_event=None) -> EnrollmentReport:
    """Build (or resume) the sharded fleet under ``directory``.

    Supervised, restartable and idempotent: shards whose files already
    verify against the manifest are reused; everything else is built
    by the supervisor with retry/quarantine semantics.  The manifest
    is only written once every shard completed, so a half-enrolled
    directory is never mistaken for a fleet.
    """
    from ..campaign.acquire import default_workers
    from ..campaign.supervisor import ShardSupervisor

    os.makedirs(directory, exist_ok=True)
    _sweep_stale_tmp(directory)

    manifest_path = os.path.join(directory, MANIFEST_NAME)
    known: Dict[int, dict] = {}
    if os.path.exists(manifest_path):
        manifest = _read_manifest(manifest_path)
        if manifest["spec_digest"] != spec.digest():
            raise EnrollmentError(
                f"directory {directory} holds a different fleet "
                f"(manifest spec digest {manifest['spec_digest']!r}, "
                f"requested {spec.digest()!r})"
            )
        for entry in manifest["shards"]:
            known[entry["shard"]] = entry

    expected_sizes = {
        index: spec.shard_count(index) * spec.record_width()
        for index in range(spec.num_shards)
    }
    reused: Dict[int, dict] = {}
    pending: List[int] = []
    for index in range(spec.num_shards):
        entry = known.get(index)
        path = os.path.join(directory, spec.shard_filename(index))
        if (entry is not None and os.path.exists(path)
                and os.path.getsize(path) == expected_sizes[index]
                and file_digest(path) == entry["sha256"]):
            reused[index] = entry
        else:
            pending.append(index)

    built: Dict[int, dict] = {}
    retried = 0
    quarantined: List[int] = []
    if pending:
        workers = default_workers(workers)
        supervisor = ShardSupervisor(
            spec, directory,
            workers=workers,
            policy=policy,
            chaos=chaos,
            task=enroll_shard,
            on_success=lambda record, attempt: built.__setitem__(
                record["shard"], record),
            on_event=on_event,
        )
        outcome = supervisor.run(pending)
        retried = outcome.retried_attempts
        quarantined = sorted(outcome.quarantined)

    report = EnrollmentReport(
        spec_digest=spec.digest(),
        directory=str(directory),
        tags=spec.tags,
        shards_total=spec.num_shards,
        shards_built=len(built),
        shards_reused=len(reused),
        quarantined=quarantined,
        retried_attempts=retried,
    )
    if quarantined:
        return report          # no manifest for an incomplete fleet

    entries = []
    for index in range(spec.num_shards):
        record = built.get(index) or reused[index]
        entries.append({
            "shard": index,
            "file": record["file"],
            "sha256": record["sha256"],
            "count": record["count"],
        })
    manifest = {
        "schema_version": _SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "spec_digest": spec.digest(),
        "shards": entries,
    }
    atomic_write_bytes(
        manifest_path,
        json.dumps(manifest, indent=1, sort_keys=True).encode(),
    )
    return report


# ----------------------------------------------------------------------
# reading the fleet back
# ----------------------------------------------------------------------

class EnrollmentStore:
    """Read access to an enrolled fleet directory.

    ``verify=True`` (the default) re-hashes every shard against the
    manifest before serving a byte — a fleet the reader identifies
    against must be exactly the fleet that was enrolled.
    """

    def __init__(self, directory: str, *, verify: bool = True):
        self.directory = str(directory)
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise EnrollmentError(
                f"no enrollment manifest in {self.directory} "
                f"(run `server enroll` first)"
            )
        manifest = _read_manifest(manifest_path)
        if manifest.get("schema_version") != _SCHEMA_VERSION:
            raise EnrollmentError(
                f"manifest schema v{manifest.get('schema_version')} "
                f"(this build reads v{_SCHEMA_VERSION})"
            )
        self.spec = EnrollmentSpec.from_dict(manifest["spec"])
        if manifest.get("spec_digest") != self.spec.digest():
            raise EnrollmentError(
                "manifest spec digest disagrees with its own spec"
            )
        self._entries = sorted(manifest["shards"],
                               key=lambda e: e["shard"])
        if [e["shard"] for e in self._entries] != \
                list(range(self.spec.num_shards)):
            raise EnrollmentError("manifest shard set is not contiguous")
        self.record_width = self.spec.record_width()
        self._shard_cache: Dict[int, bytes] = {}
        if verify:
            self.verify()

    # -- integrity -----------------------------------------------------

    def verify(self) -> None:
        """Re-hash every shard file against the manifest."""
        for entry in self._entries:
            path = os.path.join(self.directory, entry["file"])
            if not os.path.isfile(path):
                raise EnrollmentError(f"shard file missing: {entry['file']}")
            if file_digest(path) != entry["sha256"]:
                raise EnrollmentError(
                    f"shard digest mismatch: {entry['file']} does not "
                    f"match its manifest digest"
                )

    # -- access --------------------------------------------------------

    def __len__(self) -> int:
        return self.spec.tags

    def shard_bytes(self, shard_index: int) -> bytes:
        """The raw records of one shard (cached after first read)."""
        cached = self._shard_cache.get(shard_index)
        if cached is None:
            entry = self._entries[shard_index]
            path = os.path.join(self.directory, entry["file"])
            with open(path, "rb") as f:
                cached = f.read()
            expected = entry["count"] * self.record_width
            if len(cached) != expected:
                raise EnrollmentError(
                    f"shard {shard_index} holds {len(cached)} bytes, "
                    f"expected {expected}"
                )
            self._shard_cache[shard_index] = cached
        return cached

    def record(self, identity: int) -> bytes:
        """Tag ``identity``'s compressed public point."""
        if not 0 <= identity < self.spec.tags:
            raise EnrollmentError(f"identity {identity} outside fleet "
                                  f"of {self.spec.tags}")
        shard, offset = divmod(identity, self.spec.shard_size)
        data = self.shard_bytes(shard)
        start = offset * self.record_width
        return data[start:start + self.record_width]

    def point(self, identity: int) -> AffinePoint:
        """Tag ``identity``'s public point, decompressed."""
        return decompress_point(self.spec.domain().curve,
                                self.record(identity))

    def iter_shards(self) -> Iterator[Tuple[int, bytes]]:
        """``(first_identity, raw_records)`` per shard, in order."""
        for entry in self._entries:
            yield (entry["shard"] * self.spec.shard_size,
                   self.shard_bytes(entry["shard"]))


class ShardedTagDatabase(TagDatabase):
    """The fleet store behind the :class:`~repro.protocols.database.
    TagDatabase` seam: a reader built for an in-memory dict identifies
    against a million-tag directory without changing a line.

    Lookups scan shards in order and return the *canonical* identity
    (lowest match), matching :class:`InMemoryTagDatabase`'s
    first-enrollment-wins semantics.  The fleet is immutable:
    ``enroll`` refuses — membership changes are re-enrollments.
    """

    def __init__(self, store: EnrollmentStore):
        self.store = store
        self._curve = store.spec.domain().curve

    def enroll(self, identity: int, point: AffinePoint) -> None:
        raise EnrollmentError(
            "a sharded fleet is immutable; enroll by rebuilding the "
            "store with a new EnrollmentSpec"
        )

    def lookup(self, point: AffinePoint) -> Optional[int]:
        if point.is_infinity:
            return None
        needle = compress_point(self._curve, point)
        width = self.store.record_width
        for first_identity, data in self.store.iter_shards():
            offset = data.find(needle)
            while offset != -1:
                if offset % width == 0:
                    return first_identity + offset // width
                offset = data.find(needle, offset + 1)
        return None

    def __len__(self) -> int:
        return len(self.store)
