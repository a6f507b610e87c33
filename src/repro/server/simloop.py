"""A deterministic virtual-time event loop for the server simulation.

Why not asyncio: the determinism contract of this repo — "same seed,
byte-identical results" — extends to the server soak (the CI smoke job
``cmp``-s summaries across worker counts), and a wall-clock event loop
cannot honour it: task wakeups ride on OS timers, so two runs
interleave thousands of concurrent sessions differently.  This loop
keeps asyncio's *shape* (``create_task`` / ``sleep`` / futures /
queues, native ``async def`` coroutines) but replaces the clock with
the same virtual-time heap discipline as the session layer's
:class:`~repro.protocols.session.SessionEngine`, whose ``simulate()``
coroutine each server session awaits here: events execute in
``(time, sequence)`` order, and ``loop.now`` only ever moves when the
heap says so.  Everything the server does — admission, deadlines,
channel deliveries, scheduler batch flushes — is an event on this one
heap, which makes the whole service a pure function of its seed.

The surface is deliberately tiny (the server needs nothing more):

* :class:`SimLoop` — ``create_task``, ``call_at`` / ``call_soon``,
  ``sleep``, ``run_until_complete``;
* :class:`SimFuture` / :class:`SimTask` — awaitables with
  cancellation (:class:`SimCancelled`, the deadline mechanism);
* :class:`SimQueue` — the bounded admission queue;
  ``put_nowait`` raises :class:`SimQueueFull`, which the admission
  layer converts into its typed shed reject.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, List, Optional

__all__ = ["SimLoop", "SimFuture", "SimTask", "SimQueue",
           "SimQueueFull", "SimCancelled"]


class SimCancelled(Exception):
    """Thrown into a task by :meth:`SimTask.cancel` (deadlines,
    shutdown).  Deliberately *not* a ``CancelledError`` subclass:
    nothing here must interact with asyncio machinery."""


class SimQueueFull(Exception):
    """``put_nowait`` on a bounded :class:`SimQueue` at capacity."""


class _Handle:
    """One scheduled callback; ``cancel()`` makes the heap skip it."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimLoop:
    """The virtual clock and its event heap."""

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._heap: List[tuple] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------

    def call_at(self, when: float, fn: Callable, *args) -> _Handle:
        """Run ``fn(*args)`` at virtual time ``when`` (>= now)."""
        self._seq += 1
        handle = _Handle(fn, args)
        heapq.heappush(self._heap, (max(when, self._now), self._seq,
                                    handle))
        return handle

    def call_soon(self, fn: Callable, *args) -> _Handle:
        """Run ``fn(*args)`` at the current virtual time, FIFO."""
        return self.call_at(self._now, fn, *args)

    def create_task(self, coro, name: str = "") -> "SimTask":
        """Wrap a coroutine into a task scheduled to start now."""
        return SimTask(self, coro, name=name)

    def sleep(self, delay: float) -> "SimFuture":
        """An awaitable that completes ``delay`` virtual seconds on."""
        future = SimFuture(self)
        self.call_at(self._now + delay, future._wake, None)
        return future

    # -- driving -------------------------------------------------------

    def run(self) -> None:
        """Drain the heap: the simulation runs to quiescence."""
        while self._heap:
            at, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = max(self._now, at)
            handle.fn(*handle.args)

    def run_until_complete(self, awaitable) -> Any:
        """Drive the loop until ``awaitable`` resolves; return/raise it.

        The loop drains *fully* (other tasks finish too); a main task
        still pending on an empty heap is a genuine deadlock and
        raises — a silent half-finished simulation must never look
        like a result.
        """
        task = (awaitable if isinstance(awaitable, SimFuture)
                else self.create_task(awaitable))
        self.run()
        if not task.done():
            raise RuntimeError(
                "simloop deadlock: the event heap drained with the "
                "main task still pending"
            )
        return task.result()


class SimFuture:
    """A single-assignment result with deterministic callbacks."""

    def __init__(self, loop: SimLoop):
        self._loop = loop
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable] = []

    # -- inspection ----------------------------------------------------

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("future result not ready")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise RuntimeError("future result not ready")
        return self._exception

    # -- resolution ----------------------------------------------------

    def set_result(self, value: Any) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._result = value
        self._schedule_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._exception = exc
        self._schedule_callbacks()

    def _wake(self, value: Any) -> None:
        """Idempotent resolution (timer callbacks may fire after a
        cancellation already resolved the future)."""
        if not self._done:
            self.set_result(value)

    def add_done_callback(self, fn: Callable) -> None:
        if self._done:
            self._loop.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def _schedule_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._loop.call_soon(fn, self)

    # -- awaiting ------------------------------------------------------

    def __await__(self):
        if not self._done:
            yield self
        return self.result()


class SimTask(SimFuture):
    """A coroutine driven by the loop; completes with its return."""

    def __init__(self, loop: SimLoop, coro, name: str = ""):
        super().__init__(loop)
        self._coro = coro
        self.name = name
        self._awaiting: Optional[SimFuture] = None
        loop.call_soon(self._step)

    def cancel(self, message: str = "cancelled") -> bool:
        """Throw :class:`SimCancelled` into the coroutine.

        Returns False when the task already finished.  The coroutine
        may catch the cancellation (deadline bookkeeping) but is
        expected to finish promptly.
        """
        if self._done:
            return False
        # Detach from whatever it awaits; a later wake must not
        # double-resume the coroutine.
        self._awaiting = None
        self._loop.call_soon(self._step, SimCancelled(message))
        return True

    # -- stepping ------------------------------------------------------

    def _step(self, throw: Optional[BaseException] = None) -> None:
        if self._done:
            return
        self._awaiting = None
        try:
            if throw is not None:
                awaited = self._coro.throw(throw)
            else:
                awaited = self._coro.send(None)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except SimCancelled as exc:
            self.set_exception(exc)
            return
        except BaseException as exc:  # noqa: BLE001 — surfaced via result()
            self.set_exception(exc)
            return
        if not isinstance(awaited, SimFuture):
            self.set_exception(RuntimeError(
                f"task {self.name or self._coro!r} awaited a "
                f"non-sim awaitable: {awaited!r}"
            ))
            return
        self._awaiting = awaited
        awaited.add_done_callback(self._on_awaited)

    def _on_awaited(self, future: SimFuture) -> None:
        if self._awaiting is not future:
            return  # superseded by cancellation
        # Resume; the coroutine re-enters future.result(), which
        # raises the awaited future's exception right at the await.
        self._step()


class SimQueue:
    """An async FIFO; bounded when ``maxsize > 0``.

    ``put_nowait`` raising :class:`SimQueueFull` is the backpressure
    signal: the admission layer turns it into a typed shed.
    """

    def __init__(self, loop: SimLoop, maxsize: int = 0):
        self._loop = loop
        self.maxsize = maxsize
        self._items: deque = deque()
        self._getters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter._wake(item)
            return
        if self.maxsize > 0 and len(self._items) >= self.maxsize:
            raise SimQueueFull(
                f"queue at capacity ({self.maxsize})"
            )
        self._items.append(item)

    async def get(self) -> Any:
        if self._items:
            return self._items.popleft()
        future = SimFuture(self._loop)
        self._getters.append(future)
        try:
            return await future
        except SimCancelled:
            # A cancelled getter must not swallow a later put.
            try:
                self._getters.remove(future)
            except ValueError:
                pass
            raise
