"""The identification server: thousands of Figure-2 sessions at once.

This is ROADMAP item 2's reader side.  One
:class:`IdentificationServer` owns the reader secret for an enrolled
fleet (:mod:`.enrollment`), terminates concurrent Peeters–Hermans
sessions over the lossy body-area channel, and answers the closing
"which tag is this?" against the sharded store through the search
layer (:mod:`.search`).

Three load-bearing design points:

* **Admission before work.**  ``submit()`` either enqueues the arrival
  into a *bounded* admission queue or raises
  :class:`~.errors.AdmissionRejectedError` synchronously — an
  overloaded server sheds immediately rather than accepting sessions
  into deadlines it cannot meet.  Admitted sessions wait for one of
  ``capacity`` in-flight slots; a per-session deadline cancels
  stragglers (:class:`~.simloop.SimCancelled` → a ``deadline``
  outcome, never a hang).
* **Crypto through the scheduler.**  Every reader-side point
  multiplication goes through :class:`~.scheduler.ScalarMultScheduler`
  so concurrent sessions' EC work coalesces into batches; the tag side
  stays a live :class:`~repro.protocols.peeters_hermans.PeetersHermansTag`
  whose nonce-lifecycle guarantees are enforced by the real object.
* **Session semantics are the session layer's.**  Each admitted
  session is a subclass of
  :class:`repro.protocols.session.SessionEngine` — the same frame
  codec, epoch/retransmission state machine, rejection taxonomy and
  operation accounting — whose coroutine is awaited on the shared
  virtual-time :class:`~.simloop.SimLoop`, so thousands of sessions
  interleave deterministically.  Only the clock (sleeping on the
  loop), the reader's closing check (through the scheduler and the
  search layer) and the halts (tag budget, replayed commits) differ.

Everything deterministic (counts, energy, outcomes) lands in
``repro_server_*`` counters/gauges; wall-clock observations (search
latency) land in ``*_seconds`` histograms, which summary builders
strip.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..channel import (
    BodyAreaChannel,
    Frame,
    FrameError,
    LossProfile,
    compress_point,
    decompress_point,
    derive_channel_seed,
    int_from_bytes,
    int_to_bytes,
)
from ..jsonspec import JsonSpec
from ..obs import runtime as _obs_runtime
from ..protocols.ops import OperationCount
from ..protocols.peeters_hermans import PeetersHermansTag
from ..protocols.session import (PayloadRejectedError,
                                 PeetersHermansAdapter,
                                 RetransmissionPolicy, SessionEngine,
                                 SessionHalt)
from .enrollment import EnrollmentStore
from .errors import AdmissionRejectedError, ServerError
from .scheduler import NaiveScalarEngine, ScalarMultScheduler
from .search import EpochSearchCache, epoch_nonce, scan_lookup
from .simloop import SimCancelled, SimFuture, SimLoop, SimQueue, \
    SimQueueFull

__all__ = ["ServerConfig", "SessionOutcome", "IdentificationServer",
           "SEARCH_MODES"]

SEARCH_MODES = ("cached", "uncached")

#: Microjoule buckets for the per-session energy histogram (tag side
#: of one TOY-B17 session lands in the tens of µJ; retries multiply).
ENERGY_UJ_BUCKETS = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
                     2000.0, 5000.0)

#: Seconds buckets for the (wall-clock) search latency histogram.
SEARCH_SECONDS_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

_SHUTDOWN = object()


@dataclass(frozen=True)
class ServerConfig(JsonSpec):
    """Admission, deadline and search knobs of one server instance."""

    capacity: int = 256
    admission_queue: int = 64
    session_deadline_s: float = 2.0
    search_mode: str = "cached"
    epoch_sessions: int = 100000
    scheduler_window_s: float = 1e-4
    scheduler_max_batch: int = 64
    distance_m: float = 0.5
    source_session_limit: int = 0   # 0 = per-source throttling off
    replay_quarantine: bool = False
    tag_budget_uj: float = 0.0      # 0 = per-session tag budget off

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.admission_queue < 1:
            raise ValueError("admission queue must be positive")
        if self.session_deadline_s <= 0:
            raise ValueError("session deadline must be positive")
        if self.search_mode not in SEARCH_MODES:
            raise ValueError(f"search_mode must be one of {SEARCH_MODES}")
        if self.epoch_sessions < 1:
            raise ValueError("epoch_sessions must be positive")
        if self.source_session_limit < 0:
            raise ValueError("source session limit must be non-negative")
        if self.tag_budget_uj < 0:
            raise ValueError("tag budget must be non-negative")


@dataclass
class SessionOutcome:
    """One session's verdict and full deterministic accounting.

    ``outcome`` is one of ``accepted | rejected | aborted | deadline |
    adversarial | budget_exhausted`` — the full enumeration; soak
    summaries bucket every one explicitly so no session ever falls
    through to a generic failure count.
    """

    index: int
    outcome: str
    identity: Optional[int]
    expected_identity: int
    detail: str
    epochs_used: int
    frames_sent: int
    retransmissions: int
    corrupt_rejections: int
    stale_rejections: int
    replay_rejections: int
    payload_rejections: int
    elapsed_s: float                  # virtual
    records_scanned: int
    tag_energy_uj: float
    reader_energy_uj: float

    @property
    def identified_correctly(self) -> bool:
        return (self.outcome == "accepted"
                and self.identity == self.expected_identity)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "outcome": self.outcome,
            "identity": self.identity,
            "expected_identity": self.expected_identity,
            "detail": self.detail,
            "epochs_used": self.epochs_used,
            "frames_sent": self.frames_sent,
            "retransmissions": self.retransmissions,
            "elapsed_ms": round(self.elapsed_s * 1000, 3),
            "records_scanned": self.records_scanned,
            "tag_energy_uj": round(self.tag_energy_uj, 6),
            "reader_energy_uj": round(self.reader_energy_uj, 6),
        }


class IdentificationServer:
    """The concurrent reader endpoint over an enrolled fleet."""

    def __init__(self, loop: SimLoop, store: EnrollmentStore,
                 config: Optional[ServerConfig] = None, *,
                 seed: int = 0,
                 profile: Optional[LossProfile] = None,
                 policy: Optional[RetransmissionPolicy] = None,
                 registry=None,
                 scheduler: Optional[ScalarMultScheduler] = None):
        self.loop = loop
        self.store = store
        self.spec = store.spec
        self.config = config or ServerConfig()
        self.seed = seed
        self.profile = profile if profile is not None else LossProfile()
        self.policy = policy or RetransmissionPolicy()
        self.registry = registry
        self.domain = self.spec.domain()
        self._secret_y = self.spec.reader_secret()
        # The reader's long-term public key: server-wide, computed
        # once — deliberately *not* in any session's OperationCount.
        self.reader_public = self.domain.curve.multiply(
            self._secret_y, self.domain.generator)
        self.scheduler = scheduler or ScalarMultScheduler(
            loop, NaiveScalarEngine(self.domain.curve),
            window_s=self.config.scheduler_window_s,
            max_batch=self.config.scheduler_max_batch,
            registry=registry)
        self._admission: SimQueue = SimQueue(
            loop, maxsize=self.config.admission_queue)
        self._in_flight = 0
        self.peak_in_flight = 0
        self.admitted = 0
        self.shed = 0
        self.throttled = 0
        self._slot_waiter: Optional[SimFuture] = None
        self._caches: Dict[int, EpochSearchCache] = {}
        self._acceptor: Optional["SimTask"] = None
        # Per-source defenses (adversary lab): live session counts for
        # throttling, seen commitments for replay detection, and the
        # quarantine set itself.
        self._source_sessions: Dict[str, int] = {}
        self._seen_commits: Dict[bytes, Tuple[str, int]] = {}
        self.quarantined_sources: set = set()

    # -- admission -----------------------------------------------------

    def start(self) -> None:
        if self._acceptor is None:
            self._acceptor = self.loop.create_task(self._accept_loop(),
                                                   name="acceptor")

    def submit(self, index: int, source: Optional[str] = None,
               adversarial: bool = False) -> SimFuture:
        """Offer session ``index`` for admission.

        Returns a future resolving to this session's
        :class:`SessionOutcome`, or sheds *now* with a typed error:
        :class:`AdmissionRejectedError` when the admission queue is
        full, :class:`~.errors.ReplayQuarantinedError` when ``source``
        was quarantined for replaying commit material, and
        :class:`~.errors.SourceThrottledError` when ``source`` is over
        its concurrent-session allowance.  ``adversarial`` marks the
        simulation's ground truth (a malicious reader driving the
        session) so the outcome is bucketed as ``adversarial`` rather
        than a generic failure.
        """
        from .errors import ReplayQuarantinedError, SourceThrottledError
        if self._acceptor is None:
            raise ServerError("server not started", session_index=index)
        if source is not None and source in self.quarantined_sources:
            self.shed += 1
            self._count("repro_server_sheds_total",
                        "arrivals shed at the admission queue",
                        reason="quarantined")
            raise ReplayQuarantinedError(
                f"source {source!r} is quarantined for replaying "
                f"commitments", session_index=index)
        if source is not None and self.config.source_session_limit:
            live = self._source_sessions.get(source, 0)
            if live >= self.config.source_session_limit:
                self.shed += 1
                self.throttled += 1
                self._count("repro_server_sheds_total",
                            "arrivals shed at the admission queue",
                            reason="throttled")
                self._count("repro_server_throttles_total",
                            "arrivals refused by per-source throttling")
                raise SourceThrottledError(
                    f"source {source!r} already has {live} session(s) "
                    f"in flight (limit "
                    f"{self.config.source_session_limit})",
                    session_index=index)
        future = SimFuture(self.loop)
        try:
            self._admission.put_nowait(
                (index, source, adversarial, future))
        except SimQueueFull:
            self.shed += 1
            self._count("repro_server_sheds_total",
                        "arrivals shed at the admission queue",
                        reason="overload")
            raise AdmissionRejectedError(
                f"admission queue full "
                f"({self.config.admission_queue} waiting)",
                session_index=index) from None
        if source is not None:
            self._source_sessions[source] = \
                self._source_sessions.get(source, 0) + 1
        self.admitted += 1
        self._count("repro_server_admissions_total",
                    "arrivals admitted past the queue")
        return future

    async def close(self) -> None:
        """Stop accepting; waits for the acceptor to exit.  Sessions
        already admitted run to completion."""
        if self._acceptor is None:
            return
        while True:
            try:
                self._admission.put_nowait(_SHUTDOWN)
                break
            except SimQueueFull:
                await self.loop.sleep(0.01)
        await self._acceptor
        self._acceptor = None

    async def _accept_loop(self) -> None:
        rt = _obs_runtime.current()
        while True:
            item = await self._admission.get()
            if item is _SHUTDOWN:
                return
            index, source, adversarial, future = item
            while self._in_flight >= self.config.capacity:
                self._slot_waiter = SimFuture(self.loop)
                await self._slot_waiter
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight,
                                      self._in_flight)
            self._set_gauge("repro_server_sessions_in_flight",
                            "sessions currently being served",
                            float(self._in_flight))
            self._set_gauge("repro_server_in_flight_peak",
                            "high-water mark of concurrent sessions",
                            float(self.peak_in_flight))
            if rt is not None:
                with rt.span("server.accept", key=index,
                             in_flight=self._in_flight):
                    pass
            task = self.loop.create_task(
                self._run_session(index, source, adversarial),
                name=f"session-{index}")
            deadline = self.loop.call_at(
                self.loop.now + self.config.session_deadline_s,
                task.cancel, "session deadline")
            task.add_done_callback(
                self._session_closer(index, source, future, deadline))

    def _session_closer(self, index, source, future, deadline_handle):
        def closer(task) -> None:
            deadline_handle.cancel()
            self._in_flight -= 1
            if source is not None:
                live = self._source_sessions.get(source, 1) - 1
                if live > 0:
                    self._source_sessions[source] = live
                else:
                    self._source_sessions.pop(source, None)
            self._set_gauge("repro_server_sessions_in_flight",
                            "sessions currently being served",
                            float(self._in_flight))
            if self._slot_waiter is not None:
                waiter, self._slot_waiter = self._slot_waiter, None
                waiter._wake(None)
            exc = task.exception()
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(task.result())
        return closer

    # -- the per-session exchange --------------------------------------

    async def _run_session(self, index: int,
                           source: Optional[str] = None,
                           adversarial: bool = False) -> SessionOutcome:
        session = _ServerSession(self, index, source=source,
                                 adversarial=adversarial)
        rt = _obs_runtime.current()
        span = rt.span("server.session", key=index) if rt is not None \
            else None
        try:
            if span is not None:
                with span as sp:
                    await session.simulate()
                    outcome = session.outcome()
                    if sp is not None:
                        sp.set(outcome=outcome.outcome,
                               epochs=outcome.epochs_used)
            else:
                await session.simulate()
                outcome = session.outcome()
        except SimCancelled:
            if session.adversarial:
                # Ground truth wins the bucket: a malicious session
                # timed out *because* it never meant to conclude.
                outcome = session.as_outcome(
                    "adversarial",
                    "malicious reader traffic; deadline expired")
            else:
                outcome = session.as_outcome("deadline",
                                             "session deadline expired")
        self._record_session(outcome)
        return outcome

    # -- search --------------------------------------------------------

    def _cache_for(self, index: int) -> EpochSearchCache:
        epoch_index = index // self.config.epoch_sessions
        cache = self._caches.get(epoch_index)
        if cache is None:
            cache = EpochSearchCache(
                self.store, epoch_nonce(self.seed, epoch_index))
            walked = cache.build()
            self._count("repro_server_cache_builds_total",
                        "per-epoch search tables built")
            self._count("repro_server_search_records_scanned_total",
                        "fleet records walked by searches and "
                        "cache builds", walked)
            self._caches[epoch_index] = cache
            for stale in [k for k in self._caches
                          if k < epoch_index - 1]:
                del self._caches[stale]
        return cache

    def _search(self, index: int, needle: bytes
                ) -> Tuple[Optional[int], int]:
        """(canonical identity or None, records walked *this* call)."""
        rt = _obs_runtime.current()
        started = time.perf_counter()
        if self.config.search_mode == "cached":
            cache = self._cache_for(index)
            identity = cache.lookup(needle)
            scanned = 0
        else:
            identity, scanned = scan_lookup(self.store, needle)
            self._count("repro_server_search_records_scanned_total",
                        "fleet records walked by searches and "
                        "cache builds", scanned)
        wall = time.perf_counter() - started
        self._count("repro_server_search_lookups_total",
                    "closing identifications searched",
                    mode=self.config.search_mode)
        if self.registry is not None:
            self.registry.histogram(
                "repro_server_search_latency_seconds",
                "wall-clock search latency (stripped from summaries)",
                buckets=SEARCH_SECONDS_BUCKETS,
            ).observe(wall, mode=self.config.search_mode)
        if rt is not None:
            with rt.span("server.search", key=index,
                         mode=self.config.search_mode) as sp:
                if sp is not None:
                    sp.set(hit=identity is not None, scanned=scanned)
        return identity, scanned

    # -- replay quarantine ---------------------------------------------

    def observe_commit(self, source: Optional[str], index: int,
                       payload: bytes) -> bool:
        """Replay detection on commit material; True → quarantined.

        An honest tag draws a fresh nonce for every commit, so the
        same commitment bytes arriving from a *different* session are
        replay traffic; the offending source is quarantined and all
        its further arrivals shed at admission.  Same-session repeats
        (channel duplicates, retransmissions) never trigger.
        """
        if not self.config.replay_quarantine:
            return False
        key = bytes(payload)
        seen = self._seen_commits.get(key)
        if seen is None:
            self._seen_commits[key] = (source, index)
            return False
        _seen_source, seen_index = seen
        if seen_index == index:
            return False
        if source is not None:
            self.quarantined_sources.add(source)
        self._count("repro_server_quarantines_total",
                    "sources quarantined for replaying commitments")
        return True

    # -- metrics -------------------------------------------------------

    def _count(self, name: str, help_text: str, amount: float = 1.0,
               **labels) -> None:
        if self.registry is not None:
            self.registry.counter(name, help_text).inc(amount, **labels)

    def _set_gauge(self, name: str, help_text: str, value: float) -> None:
        if self.registry is not None:
            self.registry.gauge(name, help_text).set(value)

    def _record_session(self, outcome: SessionOutcome) -> None:
        self._count("repro_server_sessions_total",
                    "sessions by final outcome", outcome=outcome.outcome)
        self._count("repro_server_epochs_total",
                    "protocol epochs consumed", outcome.epochs_used)
        self._count("repro_server_frames_total",
                    "frames sent by both endpoints", outcome.frames_sent)
        self._count("repro_server_retransmissions_total",
                    "frames beyond the lossless three",
                    outcome.retransmissions)
        if outcome.outcome == "accepted" \
                and not outcome.identified_correctly:
            self._count("repro_server_misidentifications_total",
                        "accepted sessions naming the wrong tag")
        energy = None
        if self.registry is not None:
            energy = self.registry.counter(
                "repro_server_energy_uj_total",
                "microjoules spent, by role")
            energy.inc(outcome.tag_energy_uj, role="tag")
            energy.inc(outcome.reader_energy_uj, role="reader")
            self.registry.histogram(
                "repro_server_session_energy_uj",
                "tag-side microjoules per session",
                buckets=ENERGY_UJ_BUCKETS,
            ).observe(outcome.tag_energy_uj)


class _ServerSession(SessionEngine, PeetersHermansAdapter):
    """One admitted session: the shared engine on the server's loop.

    It is its own adapter.  The tag side is a live
    :class:`~repro.protocols.peeters_hermans.PeetersHermansTag` (or,
    for an ``adversarial`` session, a malicious reader replaying one
    captured commitment); the reader side draws its challenge here and
    answers the closing "which tag is this?" through the server's
    scalar-mult scheduler and search layer.  Time advances by sleeping
    on the shared :class:`~.simloop.SimLoop`; within one session no
    event is ever inserted behind the agenda head, so pop-then-sleep
    keeps the engine's ordering exactly.
    """

    def __init__(self, server: IdentificationServer, index: int, *,
                 source: Optional[str] = None,
                 adversarial: bool = False):
        spec = server.spec
        domain = server.domain
        curve = domain.curve
        self.expected_identity = spec.canonical_identity(
            derive_channel_seed(server.seed, "server/identity", index,
                                0, 0) % spec.tags)
        # Tag multiplications via curve.multiply: mathematically
        # identical to the randomized ladder, faster in wall time (the
        # chains of G and of the reader's key stay cached across
        # sessions), and the OperationCount (what energy is charged
        # on) does not depend on the algorithm.
        tag = PeetersHermansTag(
            domain, spec.secret_for(self.expected_identity),
            server.reader_public,
            multiplier=lambda k, point, rng: curve.multiply(k, point))
        PeetersHermansAdapter.__init__(self, domain, tag, None)
        SessionEngine.__init__(
            self, self,
            BodyAreaChannel(server.profile, seed=server.seed,
                            session=index),
            server.policy, server.seed, index,
            streams=("server/session-id", "server/role/tag",
                     "server/role/reader"),
            start_at=server.loop.now)
        self.server = server
        self.loop = server.loop
        self.source = source
        self.adversarial = adversarial
        self.ring = domain.scalar_ring
        self.reader_ops = OperationCount()
        self.records_scanned = 0
        self._adv_commit: Optional[bytes] = None

    # -- the shared loop -----------------------------------------------

    async def _advance(self, at: float) -> None:
        if at > self.loop.now:
            await self.loop.sleep(at - self.loop.now)
        self.now = self.loop.now

    # -- tag side ------------------------------------------------------

    def _tag_energy_uj(self) -> float:
        from ..energy.comparison import protocol_energy
        return protocol_energy("peeters-hermans/tag", self.tag.ops,
                               self.server.config.distance_m
                               ).total_j * 1e6

    def reset_epoch(self) -> None:
        if not self.adversarial:
            self.tag.abort()

    def make_m0(self, rng) -> bytes:
        if self.adversarial:
            # A malicious reader replaying captured commit material:
            # the same bytes every epoch (and every session from this
            # source) — exactly what replay quarantine looks for.  No
            # real tag is involved, so no tag energy is drawn.
            return self._adv_commit_payload()
        budget = self.server.config.tag_budget_uj
        if budget > 0 and self._tag_energy_uj() >= budget:
            # The tag's per-session µJ allowance is spent: it stops
            # retrying instead of following retransmissions into a
            # dead battery — the adversary lab's graceful-degradation
            # contract, server-side.
            raise SessionHalt(
                "budget_exhausted",
                f"tag energy budget ({budget:g} uJ) spent; tag stopped "
                f"retrying")
        return super().make_m0(rng)

    def _adv_commit_payload(self) -> bytes:
        if self._adv_commit is None:
            label = (self.source or f"session-{self.session_index}"
                     ).encode()
            draw = int.from_bytes(hashlib.sha256(
                b"repro.server/adv-commit/" + label).digest()[:8],
                "big")
            k = 1 + draw % (self.ring.n - 1)
            point = self.domain.curve.multiply(k, self.domain.generator)
            self._adv_commit = compress_point(self.domain.curve, point)
        return self._adv_commit

    def _initiator_frame(self, frame: Frame) -> None:
        # The malicious reader solicits work; it never answers
        # challenges (it cannot — it holds no tag secret).
        if not self.adversarial:
            super()._initiator_frame(frame)

    # -- reader side ---------------------------------------------------

    def handle_m0(self, payload: bytes, rng) -> bytes:
        try:
            self._commitment = decompress_point(self.domain.curve,
                                                payload)
        except FrameError as exc:
            raise PayloadRejectedError(str(exc)) from None
        if self.server.observe_commit(self.source, self.session_index,
                                      payload):
            raise SessionHalt(
                "adversarial",
                "commitment replayed from another session; source "
                "quarantined")
        self._challenge = self.ring.random_scalar(rng)
        self.reader_ops.random_bits += self.ring.n.bit_length()
        return int_to_bytes(self._challenge, self._scalar_width)

    def responder_ops(self) -> OperationCount:
        return self.reader_ops

    async def _conclude(self, payload: bytes
                        ) -> Tuple[bool, Optional[int], str]:
        """The reader's closing verification, through the scheduler
        and the search layer.  Mirrors
        :meth:`~repro.protocols.peeters_hermans.PeetersHermansReader.
        identify` operation for operation — the µJ-exactness tests
        depend on the OperationCount matching the sync reader's.
        """
        if len(payload) != self._scalar_width:
            raise PayloadRejectedError("response has the wrong width")
        server = self.server
        curve, ring = self.domain.curve, self.ring
        e, commitment = self._challenge, self._commitment
        s = int_from_bytes(payload)
        if not 1 <= e < ring.n or not 1 <= s < ring.n:
            return False, None, "tag not in the database"
        if not curve.is_on_curve(commitment) or commitment.is_infinity:
            return False, None, "tag not in the database"
        shared = await server.scheduler.multiply(server._secret_y,
                                                 commitment)
        self.reader_ops.point_multiplications += 1
        d = ring.reduce(shared.x)
        term1_f = server.scheduler.multiply(ring.sub(s, d),
                                            self.domain.generator)
        term2_f = server.scheduler.multiply(e, commitment)
        term1 = await term1_f
        term2 = await term2_f
        self.reader_ops.point_multiplications += 2
        candidate = curve.subtract(term1, term2)
        self.reader_ops.point_additions += 1
        if candidate.is_infinity:
            return False, None, "tag not in the database"
        needle = compress_point(curve, candidate)
        identity, scanned = server._search(self.session_index, needle)
        self.records_scanned += scanned
        if identity is None:
            return False, None, "tag not in the database"
        return True, identity, f"identified tag {identity}"

    # -- reporting -----------------------------------------------------

    def outcome(self) -> SessionOutcome:
        """The verdict once :meth:`simulate` has returned."""
        if self.concluded is not None:
            accepted, identity, detail = self.concluded
            return self.as_outcome("accepted" if accepted
                                   else "rejected", detail,
                                   identity=identity)
        if self.halt is not None:
            return self.as_outcome(self.halt.outcome, self.halt.detail)
        if self.adversarial:
            return self.as_outcome(
                "adversarial",
                "malicious reader traffic; session never completed")
        return self.as_outcome("aborted", "session aborted")

    def as_outcome(self, outcome: str, detail: str,
                   identity: Optional[int] = None) -> SessionOutcome:
        from ..energy.comparison import protocol_energy
        tag_energy_uj = self._tag_energy_uj()
        if self.adversarial:
            # No real tag behind a malicious reader's traffic: the
            # initiator-side bits are the adversary's to pay, not a
            # battery's.
            tag_energy_uj = 0.0
        reader_energy = protocol_energy(
            "peeters-hermans/reader", self.reader_ops,
            self.server.config.distance_m)
        return SessionOutcome(
            index=self.session_index,
            outcome=outcome,
            identity=identity,
            expected_identity=self.expected_identity,
            detail=detail,
            epochs_used=self.epoch + 1,
            frames_sent=self.frames_sent,
            retransmissions=max(0, self.frames_sent - 3),
            corrupt_rejections=self.corrupt,
            stale_rejections=self.stale,
            replay_rejections=self.replayed,
            payload_rejections=self.payload_rejected,
            elapsed_s=self.loop.now - self.started_at,
            records_scanned=self.records_scanned,
            tag_energy_uj=tag_energy_uj,
            reader_energy_uj=reader_energy.total_j * 1e6,
        )
