"""Batched point-multiplication dispatch for the reader side.

Every concurrent session needs three reader-side point
multiplications (``y*R``, ``(s-d')*P``, ``e*R`` — Figure 2's
verification), and under load thousands of sessions need them at
once.  :class:`ScalarMultScheduler` is the seam between "a session
awaits one multiplication" and "the reader's EC backend executes
many": requests arriving within one coalescing window are dispatched
as a single batch to a pluggable engine.

Today the only engine is :class:`NaiveScalarEngine`, a loop over
``curve.multiply`` — the reader is energy-rich, Section 4's asymmetry
rule, so it owes no countermeasures.  That method already shares work
across requests: it keeps the doubling chains of recently used base
points, so every ``(s-d')*P`` reuses G's chain, and ``e*R`` reuses
the one ``y*R`` built unless eight other bases came in between.  An
engine that amortizes more across a batch (for instance a
simultaneous multi-scalar multiplication) drops in behind the same
two-method interface (:meth:`ScalarMultEngine.execute`,
:attr:`ScalarMultEngine.name`) without touching a single session:
that is what the coalescing window exists to feed.

The scheduler runs on the virtual-time :class:`~.simloop.SimLoop`, so
batch composition — which requests share a flush — is deterministic
and identical across runs and worker counts.
"""

from __future__ import annotations

from typing import List, Tuple

from ..ec.point import AffinePoint
from .simloop import SimFuture, SimLoop

__all__ = ["ScalarMultEngine", "NaiveScalarEngine", "ScalarMultScheduler",
           "BATCH_SIZE_BUCKETS"]

#: Histogram buckets for the per-flush batch size.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                      256.0, 512.0)


class ScalarMultEngine:
    """What the scheduler needs from an EC backend.

    ``execute`` receives the whole batch at once so an implementation
    can amortize work across it; it must return one result per
    request, in request order.
    """

    name = "abstract"

    def execute(self, requests: List[Tuple[int, AffinePoint]]
                ) -> List[AffinePoint]:
        raise NotImplementedError


class NaiveScalarEngine(ScalarMultEngine):
    """The scalar baseline: one ``curve.multiply`` per request.

    The name ``naive-scalar`` (the ``engine`` label of the
    ``repro_server_scalarmult_*`` series) predates the cached chains
    and is kept: it means one multiplication per request, no batching.
    """

    name = "naive-scalar"

    def __init__(self, curve):
        self.curve = curve

    def execute(self, requests: List[Tuple[int, AffinePoint]]
                ) -> List[AffinePoint]:
        return [self.curve.multiply(scalar, point)
                for scalar, point in requests]


class ScalarMultScheduler:
    """Coalesces concurrent sessions' point multiplications.

    Parameters
    ----------
    loop:
        The virtual-time loop everything runs on.
    engine:
        The EC backend; any :class:`ScalarMultEngine`.
    window_s:
        Virtual seconds a flush waits after the first request of a
        batch — the coalescing window.  0 still batches everything
        submitted at one virtual instant (admission bursts), because
        the flush runs as a later event at the same time.
    max_batch:
        Hard cap per dispatch; the remainder re-arms the window.
    registry:
        Optional :class:`~repro.obs.metrics.MetricRegistry` for the
        ``repro_server_scalarmult_*`` family.
    """

    def __init__(self, loop: SimLoop, engine: ScalarMultEngine,
                 window_s: float = 1e-4, max_batch: int = 256,
                 registry=None):
        if window_s < 0:
            raise ValueError("coalescing window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.loop = loop
        self.engine = engine
        self.window_s = window_s
        self.max_batch = max_batch
        self.registry = registry
        self._pending: List[Tuple[int, AffinePoint, SimFuture]] = []
        self._flush_armed = False
        self.requests_total = 0
        self.batches_total = 0

    def multiply(self, scalar: int, point: AffinePoint) -> SimFuture:
        """``await``-able point multiplication ``scalar * point``."""
        future = SimFuture(self.loop)
        self._pending.append((scalar, point, future))
        self.requests_total += 1
        if not self._flush_armed:
            self._flush_armed = True
            self.loop.call_at(self.loop.now + self.window_s, self._flush)
        return future

    # ------------------------------------------------------------------

    def _flush(self) -> None:
        self._flush_armed = False
        if not self._pending:
            return
        batch = self._pending[:self.max_batch]
        del self._pending[:len(batch)]
        if self._pending:  # overflow re-arms immediately
            self._flush_armed = True
            self.loop.call_at(self.loop.now + self.window_s, self._flush)
        self.batches_total += 1
        requests = [(scalar, point) for scalar, point, _ in batch]
        results = self.engine.execute(requests)
        if len(results) != len(requests):
            raise RuntimeError(
                f"engine {self.engine.name} returned {len(results)} "
                f"results for {len(requests)} requests"
            )
        self._record_batch(len(batch))
        for (_, _, future), result in zip(batch, results):
            future._wake(result)

    def _record_batch(self, size: int) -> None:
        if self.registry is None:
            return
        self.registry.counter(
            "repro_server_scalarmult_requests_total",
            "point multiplications dispatched through the scheduler",
        ).inc(size, engine=self.engine.name)
        self.registry.counter(
            "repro_server_scalarmult_batches_total",
            "coalesced dispatches to the EC engine",
        ).inc(engine=self.engine.name)
        self.registry.histogram(
            "repro_server_scalarmult_batch_size",
            "requests coalesced per dispatch",
            buckets=BATCH_SIZE_BUCKETS,
        ).observe(float(size), engine=self.engine.name)
