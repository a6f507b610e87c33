"""``repro.campaign`` — the industrial side of a security evaluation.

The paper's Section 7 numbers are measurement campaigns (200 traces to
break the unprotected core, 20 000 failing against the randomized
one).  This package treats that workload as the data pipeline it is:

* :mod:`~repro.campaign.spec` — a JSON design point from which every
  random choice is derived (seed + shard index), so campaigns are
  bit-for-bit reproducible at any parallelism;
* :mod:`~repro.campaign.acquire` — the one acquisition loop
  (:func:`~repro.campaign.acquire.acquire_traces`), which fills both a
  store's shards and an in-RAM campaign, and a multiprocessing
  acquisition engine with per-shard checkpointing and resume;
* :mod:`~repro.campaign.supervisor` — fault-tolerant shard execution:
  watchdog timeouts, classified retries with backoff, quarantine, and
  an append-only ``failures.jsonl``;
* :mod:`~repro.campaign.chaos` — deterministic fault injection
  (crashes, hangs, slowdowns, corruption) for exercising the above;
* :mod:`~repro.campaign.store` — sharded, digest-verified, mmap-read
  trace storage, and the in-RAM :class:`~repro.campaign.store.TraceSet`
  that reads like a complete one-shard store;
* :mod:`~repro.campaign.streaming` — the DPA, CPA and SPA attacks over
  online accumulators, so analysis never materializes an
  ``(n_traces, n_samples)`` array; the white-box battery runs them on
  a ``TraceSet``;
* :mod:`~repro.campaign.progress` — traces/sec, ETA and per-shard
  wall-clock reporting.

Quick start::

    from repro.campaign import AcquisitionEngine, CampaignSpec, StreamingDpa

    spec = CampaignSpec(n_traces=2000, shard_size=250,
                        scenario="unprotected", max_iterations=3, seed=7)
    store = AcquisitionEngine("campaigns/demo", spec, workers=4).run()
    result = StreamingDpa(store).recover_bits(n_bits=2)
"""

from .acquire import (
    AcquisitionEngine,
    acquire_in_memory,
    acquire_shard,
    default_workers,
    random_protocol_point,
)
from .chaos import (
    CHAOS_CRASH_EXIT_CODE,
    ChaosConfig,
    ChaosInjectedError,
)
from .errors import (
    DATA_INTEGRITY,
    DETERMINISTIC,
    FAILURE_KINDS,
    TRANSIENT,
    CampaignError,
    PartialStoreError,
    ScheduleMismatchError,
    classify_exception,
)
from .progress import (
    CampaignMetrics,
    CampaignReporter,
    CollectingReporter,
    ConsoleReporter,
    NullReporter,
    ShardEvent,
)
from .spec import SCHEMA_VERSION, CampaignSpec, derive_rng, derive_seed
from .store import AttackProvenance, CorruptShardError, CoverageReport, \
    ShardRecord, ShardView, TraceSet, TraceStore, file_digest
from .streaming import (
    OnlineMoments,
    StreamingCpa,
    StreamingDpa,
    streaming_average_trace,
    streaming_spa,
)
from .supervisor import (
    FailureEvent,
    FailureLog,
    Quarantine,
    RetryPolicy,
    ShardSupervisor,
    SupervisorOutcome,
)

__all__ = [
    "AcquisitionEngine",
    "AttackProvenance",
    "CHAOS_CRASH_EXIT_CODE",
    "CampaignError",
    "CampaignMetrics",
    "CampaignReporter",
    "CampaignSpec",
    "ChaosConfig",
    "ChaosInjectedError",
    "CollectingReporter",
    "ConsoleReporter",
    "CorruptShardError",
    "CoverageReport",
    "DATA_INTEGRITY",
    "DETERMINISTIC",
    "FAILURE_KINDS",
    "FailureEvent",
    "FailureLog",
    "NullReporter",
    "OnlineMoments",
    "PartialStoreError",
    "Quarantine",
    "RetryPolicy",
    "SCHEMA_VERSION",
    "ScheduleMismatchError",
    "ShardEvent",
    "ShardRecord",
    "ShardSupervisor",
    "ShardView",
    "StreamingCpa",
    "StreamingDpa",
    "SupervisorOutcome",
    "TRANSIENT",
    "TraceSet",
    "TraceStore",
    "acquire_in_memory",
    "acquire_shard",
    "classify_exception",
    "default_workers",
    "derive_rng",
    "derive_seed",
    "file_digest",
    "random_protocol_point",
    "streaming_average_trace",
    "streaming_spa",
]
