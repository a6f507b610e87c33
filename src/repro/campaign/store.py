"""Disk-backed sharded trace store with a JSON manifest.

Layout of a campaign directory::

    campaign-dir/
      manifest.json                # spec + per-shard records (atomic)
      shard-00000.samples.npy      # (n, n_samples) float64, mmap-able
      shard-00000.aux.json         # base points (and Z values) per trace
      shard-00001.samples.npy
      ...

Samples live in plain ``.npy`` files so analysis can open them with
``np.load(..., mmap_mode="r")`` and slice out the few hundred columns
of one ladder iteration without ever paging in the other ~85 000
samples per trace — the difference between an 80 MB working set and a
14 GB one at the paper's 20 000-trace scale.  The auxiliary per-trace
inputs (base points, and the Z values in the white-box scenario) are
tiny 163-bit integers, so they ride in a sibling JSON sidecar — unlike
``.npz`` (whose zip headers embed wall-clock timestamps) its bytes are
a pure function of the campaign spec, which keeps shard digests
bit-for-bit reproducible across runs and worker counts.

Every shard file is fingerprinted with SHA-256 in the manifest; the
reader refuses digest mismatches, and the acquisition engine treats a
mismatching shard as missing (so a truncated write from a killed
worker is simply re-acquired on resume).  Manifest updates are
write-to-temp-then-rename, the strongest atomicity a JSON file gets.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..arch.coprocessor import CoprocessorConfig, EccCoprocessor
from ..ec.point import AffinePoint
from ..jsonspec import JsonSpec, _check_envelope
from ..obs.metrics import atomic_write_bytes
from .errors import DATA_INTEGRITY, CampaignError
from .spec import SCHEMA_VERSION, CampaignSpec

__all__ = ["AttackProvenance", "ShardRecord", "ShardView", "TraceSet",
           "TraceStore", "CorruptShardError", "CoverageReport",
           "file_digest"]

MANIFEST_NAME = "manifest.json"


class CorruptShardError(CampaignError):
    """A shard file does not match its manifest digest."""


def file_digest(path: str) -> str:
    """SHA-256 hex digest of a file, streamed in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class ShardRecord(JsonSpec):
    """Manifest entry for one completed shard."""

    index: int
    n_traces: int
    samples_file: str
    aux_file: str
    samples_sha256: str
    aux_sha256: str
    wall_seconds: float


@dataclass(frozen=True)
class CoverageReport:
    """Partial-completeness accounting for one campaign directory.

    The graceful-degradation contract hangs off this: a degraded
    campaign (quarantined or missing shards) still supports streaming
    attacks under ``allow_partial``, and this report states exactly
    which shards — and how many traces — back any statistic computed
    from the store.
    """

    n_shards_planned: int
    n_traces_planned: int
    completed_shards: tuple
    missing_shards: tuple
    n_traces_on_disk: int

    @property
    def is_complete(self) -> bool:
        return not self.missing_shards

    @property
    def fraction(self) -> float:
        """Completed fraction of the planned traces (0.0–1.0)."""
        if self.n_traces_planned <= 0:
            return 0.0
        return self.n_traces_on_disk / self.n_traces_planned

    def render(self) -> str:
        """One-line human summary."""
        text = (
            f"{self.n_traces_on_disk}/{self.n_traces_planned} traces "
            f"({len(self.completed_shards)}/{self.n_shards_planned} "
            f"shards, {100.0 * self.fraction:.1f}%)"
        )
        if self.missing_shards:
            text += f"; missing shards {list(self.missing_shards)}"
        return text


@dataclass(frozen=True)
class AttackProvenance:
    """Exactly which data backed a streamed statistic."""

    shard_indices: tuple
    n_traces: int
    n_traces_planned: int

    @property
    def partial(self) -> bool:
        return self.n_traces < self.n_traces_planned

    def describe(self) -> str:
        text = (f"{self.n_traces} trace(s) from shard(s) "
                f"{list(self.shard_indices)} of {self.n_traces_planned} "
                "planned")
        if self.partial:
            text += " — PARTIAL coverage"
        return text


@dataclass
class ShardView:
    """One shard's data as handed to streaming analysis.

    ``samples`` is a numpy view/array of shape ``(n_traces, width)``;
    when the store was opened with a column window it covers only that
    window.  ``z_values`` is None outside the white-box scenario.
    """

    index: int
    samples: np.ndarray
    points: list
    z_values: Optional[list]
    key_bits: list

    @property
    def n_traces(self) -> int:
        return self.samples.shape[0]


class TraceStore:
    """Reader/writer for one campaign directory.

    Writing happens in two roles: workers call :meth:`write_shard`
    (self-contained, no manifest access, safe from any process) and the
    coordinating engine calls :meth:`record_shard` /
    :meth:`save_manifest` after each completion (checkpointing).
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.spec: Optional[CampaignSpec] = None
        self.iteration_slices: list = []
        self.key_bits: list = []
        self._shards: dict = {}

    # ------------------------------------------------------------------
    # manifest lifecycle
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def exists(self) -> bool:
        """True when the directory already holds a manifest."""
        return os.path.exists(self.manifest_path)

    def initialize(self, spec: CampaignSpec) -> None:
        """Start a fresh campaign (or adopt a matching existing one).

        Re-initializing with a *different* spec than the one on disk is
        an error — a campaign directory is immutable evidence; resuming
        must not silently change what is being measured.
        """
        if self.exists:
            self.load()
            if self.spec.to_dict() != spec.to_dict():
                raise ValueError(
                    "campaign directory already holds a different spec; "
                    "refusing to mix campaigns in one directory"
                )
            return
        os.makedirs(self.directory, exist_ok=True)
        self.spec = spec
        self._shards = {}
        self.iteration_slices = []
        self.key_bits = []
        self.save_manifest()

    def load(self) -> "TraceStore":
        """Read the manifest; returns self for chaining.

        A malformed envelope raises :class:`CampaignError` naming the
        manifest and the key; a malformed spec or shard record raises
        :class:`~repro.jsonspec.SpecError`.
        """
        with open(self.manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        _check_envelope(manifest, self.manifest_path, CampaignError, {
            "iteration_slices": (
                "a list of [start, end] int pairs",
                lambda pair: isinstance(pair, list) and len(pair) == 2
                and all(type(bound) is int for bound in pair)),
            "key_bits": ("a list of 0/1 ints",
                         lambda bit: type(bit) is int and bit in (0, 1)),
            "shards": ("a list of objects",
                       lambda record: isinstance(record, dict)),
        })
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema v{manifest.get('schema_version')} is not "
                f"supported by this reader (v{SCHEMA_VERSION})"
            )
        self.spec = CampaignSpec.from_dict(manifest["spec"])
        self.iteration_slices = [tuple(s) for s in manifest["iteration_slices"]]
        self.key_bits = list(manifest["key_bits"])
        records = map(ShardRecord.from_dict, manifest["shards"])
        self._shards = {record.index: record for record in records}
        return self

    def save_manifest(self) -> None:
        """Atomically persist the manifest (the resume checkpoint)."""
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "iteration_slices": [list(s) for s in self.iteration_slices],
            "key_bits": list(self.key_bits),
            "shards": [
                self._shards[i].to_dict() for i in sorted(self._shards)
            ],
        }
        payload = json.dumps(manifest, indent=1).encode()
        atomic_write_bytes(self.manifest_path, payload)

    # ------------------------------------------------------------------
    # shard writing
    # ------------------------------------------------------------------

    @staticmethod
    def shard_filenames(index: int) -> tuple:
        """(samples, aux) file names of one shard."""
        return (f"shard-{index:05d}.samples.npy",
                f"shard-{index:05d}.aux.json")

    def write_shard(
        self,
        index: int,
        samples: np.ndarray,
        points: list,
        z_values: Optional[list],
    ) -> tuple:
        """Write one shard's files atomically; returns (record-dict-sans-
        timing) for the engine to complete and register.

        Safe to call from worker processes: touches only the two shard
        files, never the manifest.
        """
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        samples_name, aux_name = self.shard_filenames(index)
        samples_path = os.path.join(self.directory, samples_name)
        aux_path = os.path.join(self.directory, aux_name)

        buffer = io.BytesIO()
        np.save(buffer, samples)
        atomic_write_bytes(samples_path, buffer.getvalue())

        aux = {
            "points": [[hex(p.x), hex(p.y)] for p in points],
            "z": None if z_values is None else [hex(z) for z in z_values],
        }
        atomic_write_bytes(aux_path, json.dumps(aux).encode())

        return {
            "index": index,
            "n_traces": int(samples.shape[0]),
            "samples_file": samples_name,
            "aux_file": aux_name,
            "samples_sha256": file_digest(samples_path),
            "aux_sha256": file_digest(aux_path),
        }

    def record_shard(self, record: ShardRecord) -> None:
        """Register a completed shard (call :meth:`save_manifest` after)."""
        self._shards[record.index] = record

    # ------------------------------------------------------------------
    # shard inventory
    # ------------------------------------------------------------------

    @property
    def shard_records(self) -> list:
        """Completed shard records, ordered by index."""
        return [self._shards[i] for i in sorted(self._shards)]

    @property
    def n_traces_on_disk(self) -> int:
        """Traces covered by completed shards."""
        return sum(r.n_traces for r in self._shards.values())

    @property
    def is_complete(self) -> bool:
        """True when every planned shard is recorded."""
        return len(self.missing_shards()) == 0

    def missing_shards(self, verify_digests: bool = False) -> list:
        """Planned shard indices not yet (validly) on disk.

        A recorded shard whose files are gone counts as missing; with
        ``verify_digests`` a digest mismatch also demotes it (the
        resume path uses this so corrupted shards are re-acquired).
        """
        missing = []
        for index in range(self.spec.n_shards):
            record = self._shards.get(index)
            if record is None:
                missing.append(index)
                continue
            samples_path = os.path.join(self.directory, record.samples_file)
            aux_path = os.path.join(self.directory, record.aux_file)
            if not (os.path.exists(samples_path) and os.path.exists(aux_path)):
                missing.append(index)
            elif verify_digests and (
                file_digest(samples_path) != record.samples_sha256
                or file_digest(aux_path) != record.aux_sha256
            ):
                missing.append(index)
        return missing

    def forget_shards(self, indices: list) -> None:
        """Drop manifest records (used when re-acquiring bad shards)."""
        for index in indices:
            self._shards.pop(index, None)

    def build_coprocessor(self) -> EccCoprocessor:
        """A fresh device-under-test for this campaign's spec."""
        return self.spec.build_coprocessor()

    def provenance(self, max_traces: Optional[int] = None) -> AttackProvenance:
        """Provenance of a streamed pass over this store.

        Mirrors :meth:`iter_shards` exactly: completed shards in index
        order, truncated after ``max_traces``.
        """
        indices, used = [], 0
        for record in self.shard_records:
            if max_traces is not None and used >= max_traces:
                break
            take = record.n_traces
            if max_traces is not None:
                take = min(take, max_traces - used)
            indices.append(record.index)
            used += take
        return AttackProvenance(
            shard_indices=tuple(indices),
            n_traces=used,
            n_traces_planned=self.spec.n_traces,
        )

    def coverage(self, verify_digests: bool = False) -> CoverageReport:
        """Partial-completeness accounting of what is (validly) on disk."""
        missing = self.missing_shards(verify_digests=verify_digests)
        missing_set = set(missing)
        completed = tuple(
            index for index in sorted(self._shards)
            if index not in missing_set
        )
        return CoverageReport(
            n_shards_planned=self.spec.n_shards,
            n_traces_planned=self.spec.n_traces,
            completed_shards=completed,
            missing_shards=tuple(missing),
            n_traces_on_disk=sum(
                self._shards[i].n_traces for i in completed
            ),
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _verify(self, path: str, expected: str) -> None:
        actual = file_digest(path)
        if actual != expected:
            raise CorruptShardError(
                f"{os.path.basename(path)}: digest {actual[:16]}... does "
                f"not match manifest {expected[:16]}...",
                spec_digest=None if self.spec is None else self.spec.digest(),
                kind=DATA_INTEGRITY,
            )

    def open_samples(self, index: int, verify: bool = False) -> np.ndarray:
        """Memory-map one shard's sample matrix (no copy, no full read)."""
        record = self._shards[index]
        path = os.path.join(self.directory, record.samples_file)
        if verify:
            self._verify(path, record.samples_sha256)
        return np.load(path, mmap_mode="r")

    def read_aux(self, index: int, verify: bool = False) -> tuple:
        """(points, z_values) of one shard."""
        record = self._shards[index]
        path = os.path.join(self.directory, record.aux_file)
        if verify:
            self._verify(path, record.aux_sha256)
        with open(path, "r", encoding="utf-8") as f:
            aux = json.load(f)
        points = [AffinePoint(int(x, 16), int(y, 16))
                  for x, y in aux["points"]]
        z_values = (None if aux["z"] is None
                    else [int(z, 16) for z in aux["z"]])
        return points, z_values

    def iter_shards(
        self,
        columns: Optional[tuple] = None,
        max_traces: Optional[int] = None,
        verify: bool = False,
    ) -> Iterator[ShardView]:
        """Stream completed shards in index order.

        ``columns=(start, end)`` restricts the sample matrix to that
        cycle window (sliced straight off the memory-map, so only those
        columns are ever read).  ``max_traces`` truncates the stream
        after that many traces (traces-to-disclosure sweeps attack
        campaign prefixes).  ``verify`` checks file digests before
        trusting the bytes.
        """
        remaining = max_traces
        for record in self.shard_records:
            if remaining is not None and remaining <= 0:
                return
            samples = self.open_samples(record.index, verify=verify)
            points, z_values = self.read_aux(record.index, verify=verify)
            if columns is not None:
                start, end = columns
                samples = samples[:, start:end]
            if remaining is not None and samples.shape[0] > remaining:
                samples = samples[:remaining]
                points = points[:remaining]
                z_values = None if z_values is None else z_values[:remaining]
            samples = np.asarray(samples, dtype=np.float64)
            yield ShardView(
                index=record.index,
                samples=samples,
                points=points,
                z_values=z_values,
                key_bits=self.key_bits,
            )
            if remaining is not None:
                remaining -= samples.shape[0]

    def verify_all(self) -> None:
        """Digest-check every recorded shard (raises on first mismatch)."""
        for record in self.shard_records:
            self._verify(
                os.path.join(self.directory, record.samples_file),
                record.samples_sha256,
            )
            self._verify(
                os.path.join(self.directory, record.aux_file),
                record.aux_sha256,
            )


class TraceSet:
    """An in-RAM campaign, read by the attacks like a one-shard store.

    The white-box battery and the unit tests acquire a few hundred
    traces at most, so they keep them in memory (see
    :func:`~repro.campaign.acquire.acquire_in_memory`) instead of
    writing a directory.  The streaming attacks read a ``TraceSet``
    through the same surface as a :class:`TraceStore`: the iteration
    schedule, the key bits, :meth:`iter_shards`, :meth:`coverage`,
    :meth:`provenance` and :meth:`build_coprocessor`.

    Attributes
    ----------
    samples:
        ``(n_traces, n_samples)`` float64 array of power samples.
    inputs:
        The known per-trace inputs (base points).
    iteration_slices:
        Cycle windows of each ladder iteration (public knowledge: the
        design is constant-time, so the schedule is fixed).
    key_bits:
        Ground truth (for *evaluation* of an attack, never used by the
        attack itself).
    config:
        The measured device's :class:`~repro.arch.CoprocessorConfig`.
    known_randomness:
        Per-trace ``initial_z`` values, only populated in the white-box
        "randomness known to the adversary" scenario; None otherwise.
    """

    def __init__(self, samples: np.ndarray, inputs: list,
                 iteration_slices: list, key_bits: list,
                 config: CoprocessorConfig,
                 known_randomness: Optional[list] = None):
        self.samples = samples
        self.inputs = inputs
        self.iteration_slices = iteration_slices
        self.key_bits = key_bits
        self.config = config
        self.known_randomness = known_randomness

    @property
    def n_traces(self) -> int:
        """Number of acquired traces."""
        return self.samples.shape[0]

    def build_coprocessor(self) -> EccCoprocessor:
        """A fresh copy of the measured device."""
        return EccCoprocessor(self.config)

    def coverage(self) -> CoverageReport:
        """An in-RAM campaign is always complete."""
        return CoverageReport(
            n_shards_planned=1,
            n_traces_planned=self.n_traces,
            completed_shards=(0,),
            missing_shards=(),
            n_traces_on_disk=self.n_traces,
        )

    def _used(self, max_traces: Optional[int]) -> int:
        if max_traces is None:
            return self.n_traces
        return max(0, min(self.n_traces, max_traces))

    def provenance(self, max_traces: Optional[int] = None) -> AttackProvenance:
        """Provenance of a pass over the first ``max_traces`` traces."""
        used = self._used(max_traces)
        return AttackProvenance(
            shard_indices=(0,) if used else (),
            n_traces=used,
            n_traces_planned=self.n_traces,
        )

    def iter_shards(self, columns: Optional[tuple] = None,
                    max_traces: Optional[int] = None) -> Iterator[ShardView]:
        """The whole campaign as one shard, as :meth:`TraceStore.iter_shards`
        would stream a complete one-shard store."""
        used = self._used(max_traces)
        if not used:
            return
        samples = self.samples[:used]
        if columns is not None:
            start, end = columns
            samples = samples[:, start:end]
        z_values = self.known_randomness
        yield ShardView(
            index=0,
            samples=samples,
            points=self.inputs[:used],
            z_values=None if z_values is None else z_values[:used],
            key_bits=self.key_bits,
        )
