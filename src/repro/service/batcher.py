"""Dynamic batching with admission control — NvWa's scheduler, online.

The paper's thesis is that accelerator throughput comes from keeping
units busy by scheduling diverse ready work onto them, not from making a
single unit faster (§III). The serving translation: never run the batch
Smith-Waterman kernel below capacity while requests are waiting. The
:class:`DynamicBatcher` implements the two-knob policy every
high-throughput serving system converges on:

- **max_batch**: the kernel's preferred occupancy — once a forming batch
  reaches it, dispatch immediately;
- **max_wait**: the deadline a lone request will tolerate — when the
  queue runs dry before the batch fills, wait at most this long for
  company, then dispatch short.

Between those bounds the batcher *drains greedily*: everything already
queued joins the batch with no waiting at all, so under load batches run
full (occupancy → max_batch) and under light load latency stays within
one max_wait of the kernel time.

Admission control is a bounded, deadline-aware queue — the only
admission point on a request's path, gateway or not:

- :meth:`DynamicBatcher.submit` raises :class:`ServiceOverloadedError`
  once ``queue_depth`` requests are waiting, which reaches the client as
  an ``overloaded`` response (the moral HTTP 429) instead of letting
  latency grow without bound;
- an item may carry an absolute ``deadline`` (its ``budget_ms`` turned
  into a clock reading).  A deadline already past at ``submit`` raises
  :class:`QueueTimeoutShed` (wire ``queue_timeout``); one that passes
  while the item waits fails it with the same error at that moment; one
  found past at dequeue drops the item before it joins a batch.  Either
  way the item never executes and frees its slot.

A closed batcher keeps handing out queued work until empty — that is the
graceful drain path — but admits nothing new.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from collections import deque

from repro import obs
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    ERR_OVERLOADED,
    ERR_QUEUE_TIMEOUT,
    ERR_SHUTTING_DOWN,
    ServiceError,
)

#: Default knobs: a full extension-kernel batch, and a wait bound that is
#: small next to per-read alignment time (~ms) so batching is nearly free.
DEFAULT_MAX_BATCH = 64
DEFAULT_MAX_WAIT_S = 0.002
DEFAULT_QUEUE_DEPTH = 1024


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request (queue at capacity)."""

    def __init__(self, message: str):
        super().__init__(ERR_OVERLOADED, message)


class QueueTimeoutShed(ServiceError):
    """The request's budget expired before it was dispatched.

    It never executed, but its budget is spent — distinct from
    ``overloaded`` so clients know a retry is pointless.
    """

    def __init__(self, message: str):
        super().__init__(ERR_QUEUE_TIMEOUT, message)


class ServiceClosedError(ServiceError):
    """The batcher is draining or closed; no new work is admitted."""

    def __init__(self, message: str):
        super().__init__(ERR_SHUTTING_DOWN, message)


@dataclass(eq=False)
class WorkItem:
    """One queued request with its completion future and queue timestamps.

    ``span_id`` carries the submitter's request-span id (0 when tracing
    is off) so batch spans can reference every member request.
    ``deadline`` is the batcher-clock reading past which the item is
    shed instead of dispatched (None: no budget); ``timer`` fires the
    shed while the item is still queued.
    """

    request: Any
    future: "asyncio.Future[Any]"
    enqueued_at: float
    dequeued_at: float = 0.0
    span_id: int = 0
    deadline: Optional[float] = None
    timer: Optional[asyncio.TimerHandle] = None

    @property
    def abandoned(self) -> bool:
        """True when the waiter gave up (timeout/disconnect cancelled it)."""
        return self.future.cancelled()


@dataclass
class BatcherStats:
    """Point-in-time counters the batcher maintains for introspection."""

    submitted: int = 0
    rejected: int = 0
    expired: int = 0
    dispatched_batches: int = 0
    dispatched_items: int = 0
    abandoned_items: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "expired": self.expired,
            "dispatched_batches": self.dispatched_batches,
            "dispatched_items": self.dispatched_items,
            "abandoned_items": self.abandoned_items,
        }


class DynamicBatcher:
    """Coalesces submitted requests into kernel-sized batches.

    Args:
        max_batch: dispatch as soon as a forming batch reaches this size.
        max_wait_s: dispatch a short batch after waiting this long for
            more arrivals (measured from the first dequeue).
        queue_depth: admission bound on waiting requests.
        metrics: optional registry; the batcher keeps ``queue_depth``
            and ``queue_depth_peak`` (gauges) and ``batch_size``
            (histogram) current, and counts ``rejected_total``
            (``overloaded``), ``shed_queue_timeout_total`` and
            ``abandoned_total``.
        clock: injectable monotonic clock (tests); submit deadlines are
            readings of it.
    """

    def __init__(self, max_batch: int = DEFAULT_MAX_BATCH,
                 max_wait_s: float = DEFAULT_MAX_WAIT_S,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(
                f"max_wait_s must be >= 0, got {max_wait_s}")
        if queue_depth <= 0:
            raise ValueError(
                f"queue_depth must be positive, got {queue_depth}")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.queue_depth = queue_depth
        self.metrics = metrics
        self.stats = BatcherStats()
        self._clock = clock
        self._queue: Deque[WorkItem] = deque()
        self._arrival = asyncio.Event()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Requests currently waiting (admission-controlled quantity)."""
        return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, request: Any, span_id: int = 0,
               deadline: Optional[float] = None) -> "asyncio.Future[Any]":
        """Admit one request; returns the future its result resolves.

        ``deadline`` (a reading of the batcher's clock) bounds the
        request's wait: the future fails with :class:`QueueTimeoutShed`
        if it is still queued when the deadline passes.

        Raises:
            ServiceClosedError: the batcher is draining/closed.
            QueueTimeoutShed: ``deadline`` has already passed.
            ServiceOverloadedError: ``queue_depth`` requests already wait.
        """
        if self._closed:
            raise ServiceClosedError("batcher is closed to new work")
        now = self._clock()
        if deadline is not None and now >= deadline:
            self._count_expired()
            raise QueueTimeoutShed("budget spent before admission")
        if len(self._queue) >= self.queue_depth:
            self.stats.rejected += 1
            if self.metrics is not None:
                self.metrics.inc("rejected_total")
            obs.instant("request_rejected", "service")
            raise ServiceOverloadedError(
                f"queue at capacity ({self.queue_depth} waiting)")
        loop = asyncio.get_running_loop()
        item = WorkItem(request=request, future=loop.create_future(),
                        enqueued_at=now, span_id=span_id,
                        deadline=deadline)
        if deadline is not None:
            item.timer = loop.call_later(deadline - now, self._expire,
                                         item)
        self._queue.append(item)
        self.stats.submitted += 1
        self._note_depth()
        self._arrival.set()
        return item.future

    def close(self) -> None:
        """Stop admitting; wake consumers so they can drain and exit."""
        self._closed = True
        self._arrival.set()

    def abort_pending(self, exc_factory: Callable[[], Exception]) -> int:
        """Fail every queued item (the non-drain shutdown path).

        Each live item's future gets ``exc_factory()``; returns how many
        were failed. Consumers see an empty queue afterwards.
        """
        failed = 0
        while self._queue:
            item = self._queue.popleft()
            if item.timer is not None:
                item.timer.cancel()
            if item.future.done():
                continue
            item.future.set_exception(exc_factory())
            failed += 1
        self._note_depth()
        return failed

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #

    async def next_batch(self) -> Optional[list]:
        """The next batch of live :class:`WorkItem`, or ``None`` when the
        batcher is closed and fully drained.

        Dispatch policy: block until at least one live item is queued;
        greedily drain whatever else is queued; if still short of
        ``max_batch``, wait for stragglers until ``max_wait_s`` after the
        first dequeue; never return an empty batch.
        """
        first = await self._next_live_item()
        if first is None:
            return None
        form_span = obs.begin("batch_form", "service")
        batch = [first]
        deadline = first.dequeued_at + self.max_wait_s
        while len(batch) < self.max_batch:
            item = self._pop_live()
            if item is not None:
                batch.append(item)
                continue
            if self._closed:
                break
            remaining = deadline - self._clock()
            if remaining <= 0:
                break
            self._arrival.clear()
            try:
                await asyncio.wait_for(self._arrival.wait(), remaining)
            except asyncio.TimeoutError:
                break
        self.stats.dispatched_batches += 1
        self.stats.dispatched_items += len(batch)
        if self.metrics is not None:
            self.metrics.observe("batch_size", float(len(batch)))
        self._note_depth()
        form_span.end(size=len(batch),
                      request_spans=[item.span_id for item in batch
                                     if item.span_id])
        return batch

    async def _next_live_item(self) -> Optional[WorkItem]:
        """Block for the first non-abandoned item; None once closed+empty."""
        while True:
            item = self._pop_live()
            if item is not None:
                return item
            if self._closed:
                return None
            self._arrival.clear()
            # Re-check after clear: a submit may have raced the clear.
            if self._queue:
                continue
            await self._arrival.wait()

    def _pop_live(self) -> Optional[WorkItem]:
        """Pop the oldest queued item, discarding abandoned and expired
        ones."""
        while self._queue:
            item = self._queue.popleft()
            if item.timer is not None:
                item.timer.cancel()
            now = self._clock()
            if item.abandoned or (item.deadline is not None
                                  and now >= item.deadline):
                self._discard(item)
                continue
            item.dequeued_at = now
            return item
        return None

    def _expire(self, item: WorkItem) -> None:
        """Deadline timer: shed ``item`` if it is still queued."""
        try:
            self._queue.remove(item)
        except ValueError:
            return  # already dequeued
        self._discard(item)

    def _discard(self, item: WorkItem) -> None:
        """Account for a queued item that will never join a batch."""
        if item.abandoned:
            self.stats.abandoned_items += 1
            if self.metrics is not None:
                self.metrics.inc("abandoned_total")
            obs.instant("request_abandoned", "service")
        else:
            self._count_expired()
            item.future.set_exception(QueueTimeoutShed(
                f"budget spent after "
                f"{self._clock() - item.enqueued_at:.3f}s in queue"))
        self._note_depth()

    def _count_expired(self) -> None:
        self.stats.expired += 1
        if self.metrics is not None:
            self.metrics.inc("shed_queue_timeout_total")
        obs.instant("request_expired", "service")

    def _note_depth(self) -> None:
        if self.metrics is None:
            return
        depth = len(self._queue)
        self.metrics.set_gauge("queue_depth", depth)
        peak = self.metrics.gauge("queue_depth_peak")
        if depth > peak.value:
            peak.set(depth)
