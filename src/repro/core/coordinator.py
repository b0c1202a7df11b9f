"""The Coordinator (Sec. IV-D, Fig 10): Hits Buffer + Allocate Judger +
greedy Hits Allocator.

Dataflow: SUs push hits into the Store Buffer (SB); when the SB reaches the
switch threshold (75 %) and the Processing Buffer (PB) has drained, the
buffers swap. Allocation rounds — triggered by the Extension Scheduler when
enough EUs are idle (15 %) — read a fixed-size batch from the PB at the
current ``offset``, compute hit lengths, sort, split by a length threshold
into EU groups, place each hit on its optimal or an adjacent (sub-optimal)
idle unit, compact the unallocated hits back at the batch position and
advance ``offset`` past the allocated ones. That write-back + offset rule
is the paper's solution to the *hits fragmentation problem*: a hit that
failed allocation is retried first on the next round instead of leaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.workload import HitTask
from repro.extension.systolic import optimal_pe_count
from repro.sim.stats import CounterSet


class HitsBuffer:
    """Double-buffered hit store (SB + PB) with fragmentation handling."""

    def __init__(self, depth: int = 1024, switch_threshold: float = 0.75):
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if not 0.0 < switch_threshold <= 1.0:
            raise ValueError(
                f"switch_threshold must be in (0, 1], got {switch_threshold}")
        self.depth = depth
        self.switch_threshold = switch_threshold
        self._store: List[HitTask] = []
        self._processing: List[HitTask] = []
        self.offset = 0
        self.counters = CounterSet()

    # ------------------------------ SB side ------------------------------ #

    @property
    def store_occupancy(self) -> int:
        return len(self._store)

    @property
    def store_free(self) -> int:
        return self.depth - len(self._store)

    def offer(self, hits: Sequence[HitTask]) -> int:
        """Append hits to the SB; returns how many fit (rest are refused,
        which back-pressures the producing SU — the paper's *blocking*)."""
        space = self.store_free
        accepted = list(hits[:space])
        self._store.extend(accepted)
        if len(accepted) < len(hits):
            self.counters.add("sb_rejects", len(hits) - len(accepted))
        return len(accepted)

    # ------------------------------ switch ------------------------------ #

    @property
    def pb_drained(self) -> bool:
        return self.offset >= len(self._processing)

    def should_switch(self, producers_done: bool = False) -> bool:
        """75 %-full rule, or a final flush once the SUs have finished."""
        if not self.pb_drained:
            return False
        if len(self._store) >= math.ceil(self.switch_threshold * self.depth):
            return True
        return producers_done and bool(self._store)

    def switch(self) -> int:
        """Swap SB and PB; returns the new PB's hit count."""
        if not self.pb_drained:
            raise RuntimeError("cannot switch while the PB still holds hits")
        self._processing = self._store
        self._store = []
        self.offset = 0
        self.counters.add("switches")
        return len(self._processing)

    # ------------------------------ PB side ------------------------------ #

    @property
    def processing_remaining(self) -> int:
        return len(self._processing) - self.offset

    def next_batch(self, batch_size: int) -> List[HitTask]:
        """Fig 10 step ❶: read the next batch at the current offset."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return self._processing[self.offset:self.offset + batch_size]

    def writeback(self, allocated: Sequence[HitTask],
                  unallocated: Sequence[HitTask],
                  consumed: Optional[int] = None) -> None:
        """Fig 10 steps ❼-❾: allocated hits retire, unallocated hits are
        written back at the batch position; offset skips the allocated.

        ``consumed`` is the number of PB slots the original batch occupied
        (defaults to ``len(allocated) + len(unallocated)``); passing it
        explicitly lets ablations retire placed hits without advancing the
        offset (head-of-line semantics).
        """
        batch_len = len(allocated) + len(unallocated)
        if consumed is None:
            consumed = batch_len
        if consumed < batch_len:
            raise ValueError("cannot write back more hits than consumed")
        if consumed > self.processing_remaining:
            raise ValueError("writeback larger than outstanding batch")
        self._processing[self.offset:self.offset + consumed] = \
            list(allocated) + list(unallocated)
        self.offset += len(allocated)
        self.counters.add("hits_allocated", len(allocated))
        self.counters.add("hits_deferred", len(unallocated))


@dataclass(frozen=True)
class EUGroup:
    """A group of EU classes sharing hits (Fig 10 step ❺)."""

    classes: Tuple[int, ...]

    @property
    def max_class(self) -> int:
        return max(self.classes)


def build_groups(pe_classes: Sequence[int]) -> List[EUGroup]:
    """Group adjacent EU classes pairwise: {16,32} and {64,128}.

    With an odd class count the middle class joins the upper group; a
    single class forms its own group.
    """
    ordered = tuple(sorted(set(pe_classes)))
    if not ordered:
        raise ValueError("need at least one PE class")
    if len(ordered) == 1:
        return [EUGroup(ordered)]
    half = len(ordered) // 2
    return [EUGroup(ordered[:half]), EUGroup(ordered[half:])]


def split_thresholds(groups: Sequence[EUGroup]) -> List[float]:
    """Length boundaries between consecutive groups.

    Geometric midpoint between a group's largest class and the next
    group's smallest — with classes {16,32}/{64,128} this puts the Fig 10
    example's hit of length 40 (√(32·64) ≈ 45) in the upper group, as the
    paper shows.
    """
    return [math.sqrt(a.max_class * min(b.classes))
            for a, b in zip(groups, groups[1:])]


@dataclass(frozen=True)
class Placement:
    """One hit placed on one EU."""

    hit: HitTask
    unit_id: int
    pe_count: int
    optimal: bool


def idle_heaps(units: Mapping[int, int]) -> Dict[int, List[int]]:
    """``pe_count -> heap of idle unit ids`` for units given as ``unit_id
    -> pe_count``: the idle-EU record the Hits Allocator places from. An
    ascending list is already a heap, so the lowest id pops first."""
    heaps: Dict[int, List[int]] = {}
    for unit_id, pe in sorted(units.items()):
        heaps.setdefault(pe, []).append(unit_id)
    return heaps


class _GreedyAllocator:
    """The one greedy placement loop behind every Sec. IV-D policy. A
    policy is only the order its hits try the EU classes, ``candidates``,
    and whether the batch is sorted by length first (Fig 10 step ❸); the
    order depends only on the hit length, so it is built once per length.
    """

    sort_batch = True

    def __init__(self, pe_classes: Sequence[int]):
        self.pe_classes = tuple(sorted(set(pe_classes)))
        if not self.pe_classes:
            raise ValueError("need at least one PE class")
        self.counters = CounterSet()
        #: hit_len -> (optimal class, classes in the order they are tried)
        self._orders: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    def candidates(self, best_pe: int, hit_len: int) -> Sequence[int]:
        raise NotImplementedError

    def allocate(self, batch: Sequence[HitTask],
                 idle: Dict[int, List[int]],
                 ) -> Tuple[List[Placement], List[HitTask]]:
        """Fig 10 steps ❷-❻: place a PB batch onto the idle EUs.

        ``idle`` maps each PE class to a heap of its idle unit ids
        (:func:`idle_heaps`). Each hit pops the lowest idle unit id of its
        first candidate class that has one, so ``idle`` loses exactly the
        units placed; the caller pushes a unit back when it finishes.
        Returns ``(placements, unallocated)``; ``unallocated`` keeps batch
        order for write-back.
        """
        free = sum(map(len, idle.values()))
        ordered = sorted(batch, key=lambda h: h.hit_len) \
            if self.sort_batch else batch
        placements: List[Placement] = []
        for hit in ordered:
            if not free:
                break
            order = self._orders.get(hit.hit_len)
            if order is None:
                best = optimal_pe_count(hit.hit_len, self.pe_classes)
                order = (best, tuple(self.candidates(best, hit.hit_len)))
                self._orders[hit.hit_len] = order
            best, candidates = order
            for pe in candidates:
                units = idle.get(pe)
                if units:
                    optimal = pe == best
                    placements.append(
                        Placement(hit, heappop(units), pe, optimal))
                    self.counters.add("optimal" if optimal else "suboptimal")
                    free -= 1
                    break
        taken = {id(p.hit) for p in placements}
        unallocated = [h for h in batch if id(h) not in taken]
        self.counters.add("allocated", len(placements))
        self.counters.add("deferred", len(unallocated))
        return placements, unallocated


class HitsAllocator(_GreedyAllocator):
    """The paper's grouped Hits Allocator (Fig 10): a hit takes its optimal
    class, else the closest other class of its length group."""

    def __init__(self, pe_classes: Sequence[int]):
        super().__init__(pe_classes)
        self.groups = build_groups(self.pe_classes)
        self.thresholds = split_thresholds(self.groups)

    def group_of(self, hit_len: int) -> int:
        """Fig 10 step ❹: which group a hit belongs to by length."""
        for idx, bound in enumerate(self.thresholds):
            if hit_len <= bound:
                return idx
        return len(self.groups) - 1

    def candidates(self, best_pe: int, hit_len: int) -> Sequence[int]:
        group = self.groups[self.group_of(hit_len)]
        return [best_pe, *sorted((pe for pe in group.classes if pe != best_pe),
                                 key=lambda pe: abs(pe - best_pe))]


class StrictClassAllocator(_GreedyAllocator):
    """The paper's basic method (1): per-class groups, optimal-only.

    "Allocating computing units in groups with the same number of PEs
    guarantees that the different groups do not interfere and that the
    optimal computing unit is always assigned to the hit. However, once
    the number of hits is more than idle resources, hits can not be
    allocated to resources, which affects the scheduling efficiency."

    Every placement is optimal by construction; anything whose optimal
    class is busy defers — the scheduling-efficiency cost the grouped
    Hits Allocator fixes.
    """

    def candidates(self, best_pe: int, hit_len: int) -> Sequence[int]:
        return (best_pe,)


class PooledAllocator(_GreedyAllocator):
    """The paper's basic method (2): one shared pool, optimal-first.

    "Allocating all computing units in one group ensures that all idle
    resources are shared, making it easier to allocate hits to idle
    computing units. Unfortunately, this approach is too aggressive and can
    easily lead to short hits being executed by large computing units."

    Each hit takes its latency-optimal class when one is idle, otherwise
    *any* idle unit — work-conserving but latency-careless, which is what
    the grouped Hits Allocator improves on.
    """

    sort_batch = False

    def candidates(self, best_pe: int, hit_len: int) -> Sequence[int]:
        return [best_pe, *(pe for pe in self.pe_classes if pe != best_pe)]


class FIFOAllocator(_GreedyAllocator):
    """Baseline dispatch: hits in order onto any idle unit (no matching).

    Classes are tried ascending, so a hit takes the lowest idle unit id:
    units are numbered in ``eu_config`` order, which is ascending.
    """

    sort_batch = False

    def candidates(self, best_pe: int, hit_len: int) -> Sequence[int]:
        return self.pe_classes
