"""Coordinator tests: double buffering, fragmentation, greedy allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinator import (
    FIFOAllocator,
    HitsAllocator,
    HitsBuffer,
    PooledAllocator,
    build_groups,
    idle_heaps,
    split_thresholds,
)
from repro.core.workload import HitTask


def hit(idx, length, read_idx=0):
    return HitTask(read_idx=read_idx, hit_idx=idx, query_len=length,
                   ref_len=length + 8)


class TestHitsBuffer:
    def test_offer_within_capacity(self):
        buf = HitsBuffer(depth=8)
        assert buf.offer([hit(i, 10) for i in range(5)]) == 5
        assert buf.store_occupancy == 5

    def test_offer_overflow_rejected(self):
        buf = HitsBuffer(depth=4)
        accepted = buf.offer([hit(i, 10) for i in range(6)])
        assert accepted == 4
        assert buf.counters.get("sb_rejects") == 2

    def test_switch_at_threshold(self):
        buf = HitsBuffer(depth=8, switch_threshold=0.75)
        buf.offer([hit(i, 10) for i in range(5)])
        assert not buf.should_switch()
        buf.offer([hit(5, 10)])  # 6 >= ceil(0.75*8)
        assert buf.should_switch()
        assert buf.switch() == 6
        assert buf.store_occupancy == 0
        assert buf.processing_remaining == 6

    def test_flush_when_producers_done(self):
        buf = HitsBuffer(depth=100)
        buf.offer([hit(0, 10)])
        assert not buf.should_switch()
        assert buf.should_switch(producers_done=True)

    def test_no_switch_while_pb_busy(self):
        buf = HitsBuffer(depth=4, switch_threshold=0.5)
        buf.offer([hit(i, 10) for i in range(3)])
        buf.switch()
        buf.offer([hit(i, 10) for i in range(3, 6)])
        assert not buf.should_switch()  # PB not drained
        with pytest.raises(RuntimeError):
            buf.switch()

    def test_batch_and_writeback_fragmentation(self):
        """Fig 10 steps ❼-❾: unallocated hits retried at the offset."""
        buf = HitsBuffer(depth=16, switch_threshold=0.25)
        hits = [hit(i, 10 * (i + 1)) for i in range(4)]
        buf.offer(hits)
        buf.switch()
        batch = buf.next_batch(4)
        assert batch == hits
        allocated, unallocated = batch[:3], batch[3:]
        buf.writeback(allocated, unallocated)
        assert buf.offset == 3
        # the deferred hit is first in the next batch
        assert buf.next_batch(4) == unallocated

    def test_writeback_too_large_raises(self):
        buf = HitsBuffer(depth=8)
        buf.offer([hit(0, 10)])
        buf.switch()
        with pytest.raises(ValueError):
            buf.writeback([hit(0, 10), hit(1, 10)], [])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HitsBuffer(depth=0)
        with pytest.raises(ValueError):
            HitsBuffer(depth=4, switch_threshold=0.0)
        with pytest.raises(ValueError):
            HitsBuffer(depth=4).next_batch(0)


class TestGrouping:
    def test_paper_groups(self):
        """Fig 10 step ❺: {16,32} and {64,128}."""
        groups = build_groups((16, 32, 64, 128))
        assert groups[0].classes == (16, 32)
        assert groups[1].classes == (64, 128)

    def test_single_class(self):
        assert build_groups((64,))[0].classes == (64,)

    def test_odd_class_count(self):
        groups = build_groups((16, 32, 64))
        assert groups[0].classes == (16,)
        assert groups[1].classes == (32, 64)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_groups(())

    def test_split_threshold_covers_fig10_example(self):
        """Hit lengths (7, 29, 40) fall in the upper group, 103 in the
        lower — the geometric midpoint √(32·64) ≈ 45 splits them."""
        groups = build_groups((16, 32, 64, 128))
        (threshold,) = split_thresholds(groups)
        assert 40 <= threshold <= 64
        allocator = HitsAllocator((16, 32, 64, 128))
        assert allocator.group_of(7) == 0
        assert allocator.group_of(29) == 0
        assert allocator.group_of(40) == 0
        assert allocator.group_of(103) == 1


class TestIdleHeaps:
    def test_one_ascending_heap_per_class(self):
        assert idle_heaps({2: 64, 5: 16, 0: 16}) == {16: [0, 5], 64: [2]}

    def test_allocate_pops_exactly_the_placed_units(self):
        """The heaps are the caller's idle record: a placement removes its
        unit, the lowest idle id of the class."""
        idle = idle_heaps({0: 16, 1: 16, 2: 64})
        placements, _ = HitsAllocator((16, 32, 64, 128)).allocate(
            [hit(0, 8)], idle)
        assert [p.unit_id for p in placements] == [0]
        assert idle == {16: [1], 64: [2]}


class TestHitsAllocator:
    def test_optimal_placement(self):
        allocator = HitsAllocator((16, 32, 64, 128))
        idle = idle_heaps({0: 16, 1: 32, 2: 64, 3: 128})
        placements, unallocated = allocator.allocate(
            [hit(0, 8), hit(1, 30), hit(2, 60), hit(3, 120)], idle)
        assert not unallocated
        assert {p.pe_count for p in placements} == {16, 32, 64, 128}
        assert all(p.optimal for p in placements)

    def test_suboptimal_within_group(self):
        allocator = HitsAllocator((16, 32, 64, 128))
        # only a 32-PE unit idle; a short hit takes it (sub-optimal)
        placements, unallocated = allocator.allocate(
            [hit(0, 8)], idle_heaps({5: 32}))
        assert len(placements) == 1
        assert placements[0].pe_count == 32
        assert not placements[0].optimal

    def test_never_crosses_groups(self):
        allocator = HitsAllocator((16, 32, 64, 128))
        # short hit, only big units idle -> deferred (Fig 10's hit_len 40)
        placements, unallocated = allocator.allocate(
            [hit(0, 8)], idle_heaps({5: 64, 6: 128}))
        assert not placements
        assert len(unallocated) == 1

    def test_unallocated_preserve_batch_order(self):
        allocator = HitsAllocator((16, 32, 64, 128))
        batch = [hit(0, 8), hit(1, 9), hit(2, 10)]
        placements, unallocated = allocator.allocate(
            batch, idle_heaps({0: 16}))
        assert len(placements) == 1
        assert [h.hit_idx for h in unallocated] == \
            [h.hit_idx for h in batch if h is not placements[0].hit]

    def test_shortest_hits_first(self):
        """Fig 10 step ❸: sorting by hit_len gives short hits priority."""
        allocator = HitsAllocator((16, 32, 64, 128))
        batch = [hit(0, 15), hit(1, 3)]
        placements, _ = allocator.allocate(batch, idle_heaps({0: 16}))
        assert placements[0].hit.hit_idx == 1

    def test_counters(self):
        allocator = HitsAllocator((16, 32, 64, 128))
        allocator.allocate([hit(0, 8), hit(1, 100)], idle_heaps({0: 16}))
        assert allocator.counters.get("allocated") == 1
        assert allocator.counters.get("deferred") == 1

    def test_empty_classes_raise(self):
        with pytest.raises(ValueError):
            HitsAllocator(())


class TestPooledAllocator:
    def test_optimal_first(self):
        allocator = PooledAllocator((16, 32, 64, 128))
        placements, _ = allocator.allocate(
            [hit(0, 8)], idle_heaps({0: 128, 1: 16}))
        assert placements[0].pe_count == 16
        assert placements[0].optimal

    def test_aggressive_fallback_crosses_groups(self):
        """Method (2): short hits land on large units when small are busy."""
        allocator = PooledAllocator((16, 32, 64, 128))
        placements, unallocated = allocator.allocate(
            [hit(0, 8)], idle_heaps({5: 128}))
        assert len(placements) == 1
        assert placements[0].pe_count == 128
        assert not placements[0].optimal
        assert not unallocated


class TestFIFOAllocator:
    def test_in_order_dispatch(self):
        allocator = FIFOAllocator((16, 32, 64, 128))
        batch = [hit(0, 100), hit(1, 5)]
        placements, unallocated = allocator.allocate(
            batch, idle_heaps({3: 16, 7: 64}))
        assert [p.unit_id for p in placements] == [3, 7]
        assert [p.hit.hit_idx for p in placements] == [0, 1]
        assert not unallocated

    def test_excess_hits_deferred(self):
        allocator = FIFOAllocator((16,))
        placements, unallocated = allocator.allocate(
            [hit(i, 5) for i in range(3)], idle_heaps({0: 16}))
        assert len(placements) == 1
        assert len(unallocated) == 2


@given(st.lists(st.integers(1, 200), min_size=0, max_size=40),
       st.dictionaries(st.integers(0, 99), st.sampled_from([16, 32, 64, 128]),
                       max_size=20))
@settings(max_examples=60)
def test_property_allocation_conserves_hits(lengths, idle):
    """Every hit is either placed exactly once or deferred exactly once."""
    allocator = HitsAllocator((16, 32, 64, 128))
    batch = [hit(i, length) for i, length in enumerate(lengths)]
    heaps = idle_heaps(idle)
    placements, unallocated = allocator.allocate(batch, heaps)
    placed_ids = [p.hit.hit_idx for p in placements]
    deferred_ids = [h.hit_idx for h in unallocated]
    assert sorted(placed_ids + deferred_ids) == sorted(h.hit_idx for h in batch)
    assert len(set(p.unit_id for p in placements)) == len(placements)
    for p in placements:
        assert idle[p.unit_id] == p.pe_count
    # Every idle unit is either placed or still in its class heap, once.
    remaining = [(uid, pe) for pe, ids in heaps.items() for uid in ids]
    assert sorted(remaining + [(p.unit_id, p.pe_count) for p in placements]) \
        == sorted(idle.items())
