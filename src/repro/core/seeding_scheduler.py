"""The Seeding Scheduler (Sec. IV-B): OCRA + Read SPM prefetching.

Wraps the read allocator (One-Cycle or the Read-in-Batch baseline) together
with the scratchpad that stages upcoming reads, presenting one scheduling
action to the accelerator top level: given the SU status vector, which
units load which reads, and at what load latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.allocator import OneCycleReadAllocator, ReadInBatchAllocator
from repro.sim.spm import Scratchpad


@dataclass(frozen=True)
class ScheduledLoad:
    """One read load issued to one SU."""

    unit_id: int
    read_idx: int
    load_latency: int


class SeedingScheduler:
    """Feeds idle SUs with unprocessed reads.

    Args:
        num_units: SU pool size.
        total_reads: input stream length.
        use_ocra: True for the One-Cycle Read Allocator, False for the
            Read-in-Batch baseline (Fig 5(a) vs 5(b)).
        spm: Read SPM staging buffer; prefetched ahead of allocation so
            loads cost one cycle instead of a DRAM round trip.
        prefetch_ahead: how many upcoming reads to keep staged.
    """

    def __init__(self, num_units: int, total_reads: int,
                 use_ocra: bool = True, spm: Optional[Scratchpad] = None,
                 prefetch_ahead: int = 256, prefetch: bool = True):
        if prefetch_ahead <= 0:
            raise ValueError("prefetch_ahead must be positive")
        self.num_units = num_units
        self.total_reads = total_reads
        self.spm = spm or Scratchpad(capacity=max(prefetch_ahead, 1))
        self.prefetch_ahead = prefetch_ahead
        self.prefetch_enabled = prefetch
        if use_ocra:
            self._allocator = OneCycleReadAllocator(num_units, total_reads)
        else:
            self._allocator = ReadInBatchAllocator(num_units, total_reads)
        self._prefetch_cursor = 0
        self._prefetch()

    @property
    def exhausted(self) -> bool:
        return self._allocator.exhausted

    def schedule(self, status: Sequence[int]) -> Tuple[ScheduledLoad, ...]:
        """One scheduling action for the given SU status vector.

        With OCRA every idle unit is served; with Read-in-Batch a new batch
        is issued only when all units are idle.
        """
        result = self._allocator.allocate(status)
        loads = tuple(
            ScheduledLoad(unit_id=unit, read_idx=read_idx,
                          load_latency=self.spm.fetch(read_idx))
            for unit, read_idx in sorted(result.assignments.items()))
        self._prefetch()
        return loads

    def _prefetch(self) -> None:
        """Keep the SPM topped up with the next unissued reads."""
        if not self.prefetch_enabled:
            return
        while (self._prefetch_cursor < self.total_reads
               and self.spm.occupancy < self.prefetch_ahead):
            if not self.spm.prefetch(self._prefetch_cursor):
                break
            self._prefetch_cursor += 1
