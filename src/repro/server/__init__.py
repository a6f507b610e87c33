"""repro.server — the fleet-scale private-identification service.

ROADMAP item 2: the paper's Figure-2 reader, grown from a toy
one-tag-one-dict verifier into a service that terminates thousands of
concurrent Peeters–Hermans sessions over the lossy body-area channel
against a sharded, disk-backed enrollment database of 10^6+ tags.

The subsystem is a layer cake, bottom up:

* :mod:`.simloop` — a deterministic virtual-time event loop (asyncio's
  shape, none of its wall-clock nondeterminism) the whole service runs
  on; identical seeds yield identical schedules, byte for byte;
* :mod:`.enrollment` — deterministic fleet enrollment from a seed into
  digest-verified shards (the :mod:`repro.campaign.store` discipline),
  plus :class:`ShardedTagDatabase`, the fleet-scale implementation of
  the :class:`~repro.protocols.database.TagDatabase` protocol;
* :mod:`.scheduler` — :class:`ScalarMultScheduler`, the batched
  point-multiplication dispatch interface that coalesces reader-side
  EC work across concurrent sessions (scalar engine today, the
  ROADMAP-item-1 batch engine later, behind the same interface);
* :mod:`.search` — the private-identification search: the uncached
  O(N) shard scan every lookup pays, and the per-epoch precomputed
  table (keyed by the epoch nonce) that beats it;
* :mod:`.reader` — the service itself: bounded admission queue,
  per-session deadlines, graceful shedding under overload, live
  ``repro_server_*`` metrics and ``server.accept > session > search``
  obs spans;
* :mod:`.soak` — cohort-sharded soak runs on the soak kernel
  (:mod:`repro.soak`), with summaries byte-identical across worker
  counts and chaos;
* :mod:`.http` — the live ``/metrics`` Prometheus text endpoint.
"""

from .enrollment import (
    EnrollmentError,
    EnrollmentReport,
    EnrollmentSpec,
    EnrollmentStore,
    ShardedTagDatabase,
    enroll_fleet,
)
from .errors import (
    AdmissionRejectedError,
    ReplayQuarantinedError,
    ServerError,
    SourceThrottledError,
)
from .http import MetricsServer
from .reader import IdentificationServer, ServerConfig
from .scheduler import NaiveScalarEngine, ScalarMultScheduler
from .search import EpochSearchCache, epoch_nonce, scan_lookup
from .simloop import SimCancelled, SimLoop, SimQueue, SimQueueFull
from .soak import SESSION_OUTCOMES, SoakReport, SoakSpec, run_soak

__all__ = [
    "ServerError",
    "AdmissionRejectedError",
    "SourceThrottledError",
    "ReplayQuarantinedError",
    "SESSION_OUTCOMES",
    "EnrollmentError",
    "EnrollmentSpec",
    "EnrollmentStore",
    "EnrollmentReport",
    "ShardedTagDatabase",
    "enroll_fleet",
    "ScalarMultScheduler",
    "NaiveScalarEngine",
    "EpochSearchCache",
    "epoch_nonce",
    "scan_lookup",
    "SimLoop",
    "SimCancelled",
    "SimQueue",
    "SimQueueFull",
    "IdentificationServer",
    "ServerConfig",
    "SoakSpec",
    "SoakReport",
    "run_soak",
    "MetricsServer",
]
