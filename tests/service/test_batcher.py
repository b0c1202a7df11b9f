"""Dynamic batching policy: drain-greedy coalescing + admission control."""

import asyncio

import pytest

from repro.service.batcher import (
    DynamicBatcher,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.metrics import MetricsRegistry
from tests.service.helpers import run


def test_knob_validation():
    async def scenario():
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_wait_s=-1)
        with pytest.raises(ValueError):
            DynamicBatcher(queue_depth=0)
    run(scenario())


def test_greedy_drain_fills_one_batch():
    async def scenario():
        batcher = DynamicBatcher(max_batch=8, max_wait_s=0.05)
        futures = [batcher.submit(i) for i in range(5)]
        batch = await batcher.next_batch()
        # Everything already queued joins one batch, not five.
        assert [item.request for item in batch] == [0, 1, 2, 3, 4]
        assert batcher.depth == 0
        assert all(not f.done() for f in futures)
    run(scenario())


def test_max_batch_splits_queue():
    async def scenario():
        batcher = DynamicBatcher(max_batch=3, max_wait_s=0.05)
        for i in range(7):
            batcher.submit(i)
        sizes = [len(await batcher.next_batch()) for _ in range(3)]
        assert sizes == [3, 3, 1] or sizes[:2] == [3, 3]
    run(scenario())


def test_max_wait_dispatches_short_batch():
    async def scenario():
        batcher = DynamicBatcher(max_batch=64, max_wait_s=0.02)
        batcher.submit("lonely")
        started = asyncio.get_event_loop().time()
        batch = await batcher.next_batch()
        waited = asyncio.get_event_loop().time() - started
        assert [item.request for item in batch] == ["lonely"]
        assert waited < 1.0  # bounded by max_wait, not forever
    run(scenario())


def test_late_arrivals_join_until_deadline():
    async def scenario():
        batcher = DynamicBatcher(max_batch=64, max_wait_s=0.2)
        batcher.submit("first")

        async def straggler():
            await asyncio.sleep(0.02)
            batcher.submit("second")

        task = asyncio.ensure_future(straggler())
        batch = await batcher.next_batch()
        await task
        assert [item.request for item in batch] == ["first", "second"]
    run(scenario())


def test_admission_control_rejects_at_capacity():
    async def scenario():
        metrics = MetricsRegistry()
        batcher = DynamicBatcher(max_batch=4, queue_depth=2,
                                 metrics=metrics)
        batcher.submit(1)
        batcher.submit(2)
        with pytest.raises(ServiceOverloadedError):
            batcher.submit(3)
        assert batcher.stats.rejected == 1
        assert metrics.snapshot()["counters"]["rejected_total"] == 1
        # Dequeueing frees capacity again.
        await batcher.next_batch()
        batcher.submit(3)
    run(scenario())


def test_closed_batcher_rejects_then_drains():
    async def scenario():
        batcher = DynamicBatcher(max_batch=2, max_wait_s=0.0)
        batcher.submit("a")
        batcher.submit("b")
        batcher.submit("c")
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.submit("d")
        drained = []
        while True:
            batch = await batcher.next_batch()
            if batch is None:
                break
            drained.extend(item.request for item in batch)
        assert drained == ["a", "b", "c"]
        # Subsequent calls keep returning None (idempotent drain).
        assert await batcher.next_batch() is None
    run(scenario())


def test_abandoned_items_are_skipped():
    async def scenario():
        batcher = DynamicBatcher(max_batch=8, max_wait_s=0.0)
        keep = batcher.submit("keep")
        drop = batcher.submit("drop")
        drop.cancel()
        batch = await batcher.next_batch()
        assert [item.request for item in batch] == ["keep"]
        assert batcher.stats.abandoned_items == 1
        assert not keep.done()
    run(scenario())


def test_abandonment_updates_queue_depth_gauge():
    """A discarded waiter must leave the gauge, not just the deque."""
    async def scenario():
        metrics = MetricsRegistry()
        batcher = DynamicBatcher(max_batch=8, max_wait_s=0.0,
                                 metrics=metrics)
        keep = batcher.submit("keep")
        dropped = [batcher.submit(f"drop{i}") for i in range(2)]
        assert metrics.gauge("queue_depth").value == 3
        for future in dropped:
            future.cancel()
        batch = await batcher.next_batch()
        assert [item.request for item in batch] == ["keep"]
        assert batcher.stats.abandoned_items == 2
        assert metrics.snapshot()["counters"]["abandoned_total"] == 2
        assert metrics.gauge("queue_depth").value == 0
        assert not keep.done()
    run(scenario())


def test_cancel_mid_batch_formation_never_joins_batch():
    """A waiter cancelled while a batch is *forming* (first member
    already dequeued, batcher waiting for stragglers) must be discarded,
    not dispatched to the engine."""
    async def scenario():
        batcher = DynamicBatcher(max_batch=4, max_wait_s=0.5)
        batcher.submit("first")
        batch_task = asyncio.ensure_future(batcher.next_batch())
        await asyncio.sleep(0.01)   # formation underway, waiting
        doomed = batcher.submit("doomed")
        doomed.cancel()             # cancelled before the batcher wakes
        await asyncio.sleep(0.01)
        straggler = batcher.submit("straggler")
        batcher.close()             # stop waiting for more arrivals
        batch = await batch_task
        assert [item.request for item in batch] == ["first", "straggler"]
        assert all(not item.future.cancelled() for item in batch)
        assert batcher.stats.abandoned_items == 1
        assert not straggler.done()
    run(scenario())


def test_cancel_after_submit_before_any_dequeue():
    """Cancel landing before the consumer ever runs: the batch must
    form entirely from live items and never block on the dead one."""
    async def scenario():
        metrics = MetricsRegistry()
        batcher = DynamicBatcher(max_batch=2, max_wait_s=0.0,
                                 metrics=metrics)
        dead = batcher.submit("dead")
        live = batcher.submit("live")
        dead.cancel()
        batch = await batcher.next_batch()
        assert [item.request for item in batch] == ["live"]
        assert all(not item.future.cancelled() for item in batch)
        assert batcher.stats.abandoned_items == 1
        assert metrics.gauge("queue_depth").value == 0
        assert not live.done()
    run(scenario())


def test_abort_pending_fails_queued_futures():
    async def scenario():
        batcher = DynamicBatcher(max_batch=8)
        futures = [batcher.submit(i) for i in range(3)]
        failed = batcher.abort_pending(
            lambda: ServiceClosedError("going down"))
        assert failed == 3
        for future in futures:
            with pytest.raises(ServiceClosedError):
                await future
        batcher.close()
        assert await batcher.next_batch() is None
    run(scenario())


def test_batch_size_metric_recorded():
    async def scenario():
        metrics = MetricsRegistry()
        batcher = DynamicBatcher(max_batch=8, max_wait_s=0.0,
                                 metrics=metrics)
        for i in range(5):
            batcher.submit(i)
        await batcher.next_batch()
        hist = metrics.snapshot()["histograms"]["batch_size"]
        assert hist["count"] == 1
        assert hist["mean"] == 5.0
    run(scenario())


def test_occupancy_under_load_reaches_max_batch():
    """The NvWa property: with a backlog, batches run full."""
    async def scenario():
        batcher = DynamicBatcher(max_batch=16, max_wait_s=0.0)
        for i in range(64):
            batcher.submit(i)
        sizes = []
        for _ in range(4):
            sizes.append(len(await batcher.next_batch()))
        assert sizes == [16, 16, 16, 16]
    run(scenario())


def test_items_without_a_budget_are_unaffected_by_deadlines():
    """Budgetless items never expire, however far the clock runs, and
    share batches with budgeted ones as before."""
    async def scenario():
        now = [0.0]
        batcher = DynamicBatcher(max_batch=8, max_wait_s=0.0,
                                 clock=lambda: now[0])
        plain = [batcher.submit(f"plain{i}") for i in range(3)]
        budgeted = batcher.submit("budgeted", deadline=1.0)
        now[0] = 1e9
        batch = await batcher.next_batch()
        assert [item.request for item in batch] == [
            "plain0", "plain1", "plain2"]
        assert all(not f.done() for f in plain)
        assert budgeted.done() and batcher.stats.expired == 1
    run(scenario())


def test_queue_depth_peak_never_exceeds_queue_depth():
    async def scenario():
        metrics = MetricsRegistry()
        batcher = DynamicBatcher(max_batch=2, max_wait_s=0.0,
                                 queue_depth=3, metrics=metrics)
        rejected = 0
        for round_ in range(4):
            for i in range(5):
                try:
                    batcher.submit((round_, i))
                except ServiceOverloadedError:
                    rejected += 1
                peak = metrics.gauge("queue_depth_peak").value
                assert peak <= batcher.queue_depth
            await batcher.next_batch()
        assert metrics.gauge("queue_depth_peak").value == 3
        assert rejected == batcher.stats.rejected > 0
    run(scenario())
