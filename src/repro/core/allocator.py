"""The One-Cycle Read Allocator (Sec. IV-B, Fig 5(b) and Fig 6).

Equations (1)-(2): with unit status ``s_i`` (0 idle, 1 busy), allocated
read index ``a_i`` and global offset ``g``,

    a_i <- g + 1 + sum_{k<i} (1 - s_k)    if s_i = 0
    g   <- g + sum_k (1 - s_k)

i.e. every idle unit simultaneously receives the next unassigned read, with
priority by unit index. The microarchitecture (Fig 6) computes each unit's
rank among the idle units with a per-unit mask (``unit_mark_table``) ANDed
against the inverted status vector and fed through a PopCount tree — all
combinational, hence "one cycle".

Two implementations are provided and property-tested against each other:
:meth:`OneCycleReadAllocator.allocate` evaluates the equations directly;
:meth:`allocate_microarch` walks the five hardware steps of Fig 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.hw.popcount import PopCountTree, unit_mark_table


@dataclass(frozen=True)
class AllocationResult:
    """One allocation cycle's outcome: ``unit -> read index``."""

    assignments: Dict[int, int]
    new_offset: int


class OneCycleReadAllocator:
    """Priority-indexed parallel read allocator for a pool of SUs.

    Args:
        num_units: seeding units under management (paper: 64-512).
        total_reads: reads available in the input stream (allocation stops
            silently when the stream is exhausted).
    """

    def __init__(self, num_units: int, total_reads: int):
        if num_units <= 0:
            raise ValueError(f"num_units must be positive, got {num_units}")
        if total_reads < 0:
            raise ValueError(f"total_reads must be >= 0, got {total_reads}")
        self.num_units = num_units
        self.total_reads = total_reads
        #: g in the paper: index of the last allocated read (-1 initially,
        #: so the first idle unit receives read 0 = g + 1).
        self.offset = -1
        self._mask_table = unit_mark_table(num_units)
        self.popcount_tree = PopCountTree(num_units)

    @property
    def exhausted(self) -> bool:
        """True once every read has been handed out."""
        return self.offset >= self.total_reads - 1

    def allocate(self, status: Sequence[int]) -> AllocationResult:
        """Equations (1)-(2): assign the next reads to all idle units.

        ``status[i]`` is 0 for idle, 1 for busy. Returns the unit→read map
        for this cycle and advances the global offset.
        """
        status = self._validated(status)
        assignments: Dict[int, int] = {}
        idle_before = 0
        for i in range(self.num_units):
            if status[i] == 0:
                read_idx = self.offset + 1 + idle_before
                if read_idx < self.total_reads:
                    assignments[i] = read_idx
                idle_before += 1
        self.offset = min(self.offset + idle_before, self.total_reads - 1)
        return AllocationResult(assignments=assignments,
                                new_offset=self.offset)

    def allocate_microarch(self, status: Sequence[int]) -> AllocationResult:
        """The five hardware steps of Fig 6, bit-for-bit.

        ❶ invert ``unit_status``; ❷ AND with ``unit_mark_table[i]``;
        ❸ PopCount tree → idle units ahead of unit i; ❹ add ``read_offset``
        (+1); ❺ mux on the unit's own idle bit.
        """
        status = self._validated(status)
        inverted = 1 - status                                    # step 1
        assignments: Dict[int, int] = {}
        for i in range(self.num_units):
            marked = inverted & self._mask_table[i]              # step 2
            rank = self.popcount_tree.count(marked)              # step 3
            read_idx = self.offset + 1 + rank                    # step 4
            if inverted[i] and read_idx < self.total_reads:      # step 5
                assignments[i] = read_idx
        total_idle = self.popcount_tree.count(inverted)
        self.offset = min(self.offset + total_idle, self.total_reads - 1)
        return AllocationResult(assignments=assignments,
                                new_offset=self.offset)

    def _validated(self, status: Sequence[int]) -> np.ndarray:
        arr = np.asarray(status, dtype=np.int8)
        if arr.size != self.num_units:
            raise ValueError(
                f"status vector of length {arr.size} != {self.num_units} units")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("status values must be 0 (idle) or 1 (busy)")
        return arr

    def single_cycle_at(self, frequency_hz: float = 1e9) -> bool:
        """The paper's timing claim: the PopCount tree fits one cycle."""
        return self.popcount_tree.meets_frequency(frequency_hz)


class ReadInBatchAllocator:
    """The baseline strategy of GenAx/ERT (Fig 5(a)).

    Reads are issued in batches of ``num_units``; no unit receives a new
    read until *every* unit in the current batch has finished.
    """

    def __init__(self, num_units: int, total_reads: int):
        if num_units <= 0:
            raise ValueError(f"num_units must be positive, got {num_units}")
        if total_reads < 0:
            raise ValueError(f"total_reads must be >= 0, got {total_reads}")
        self.num_units = num_units
        self.total_reads = total_reads
        self.next_read = 0

    @property
    def exhausted(self) -> bool:
        return self.next_read >= self.total_reads

    def allocate(self, status: Sequence[int]) -> AllocationResult:
        """Issue the next batch — only legal when *all* units are idle."""
        arr = np.asarray(status, dtype=np.int8)
        if arr.size != self.num_units:
            raise ValueError(
                f"status vector of length {arr.size} != {self.num_units} units")
        if np.any(arr == 1):
            return AllocationResult(assignments={}, new_offset=self.next_read)
        assignments: Dict[int, int] = {}
        for i in range(self.num_units):
            if self.next_read >= self.total_reads:
                break
            assignments[i] = self.next_read
            self.next_read += 1
        return AllocationResult(assignments=assignments,
                                new_offset=self.next_read)
