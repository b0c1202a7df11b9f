"""Seeding Unit (SU) cycle model.

The SU datapath is the LFMapBit FM-index search engine of Wang et al. [65]
("we use the LFMapBit architecture ... since it delivers sufficient
throughput for our system"). Table II shows the SU's area is dominated by
its Table SRAM (2.16 mm² of 2.66 mm²): the hot Occ-checkpoint blocks live
on chip, so the pipelined LF-mapping loop retires roughly one Occ access
per cycle, with a small fraction missing to HBM. Per-read duration
diversity therefore comes from the *measured access count* of the
functional seeding layer — exactly the input sensitivity of footnote 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.interface import UnitState
from repro.core.workload import ReadTask
from repro.sim.memory import MemoryModel

#: Bytes fetched per Occ lookup: one 128-bit checkpoint block.
OCC_BLOCK_BYTES = 16


@dataclass
class SeedingUnit:
    """One SU: state machine + duration model.

    Args:
        unit_id: index within the SU pool.
        memory: shared off-chip memory model (charged for SRAM misses).
        pipeline_overhead: fixed per-read cycles (decode, setup).
        cycles_per_access: pipelined Occ-step cost when the block is in
            the Table SRAM (LFMapBit sustains ~1/cycle).
        sram_miss_rate: fraction of Occ accesses missing to HBM.
        memory_parallelism: outstanding HBM fetches the SU sustains.
    """

    unit_id: int
    memory: MemoryModel
    pipeline_overhead: int = 4
    cycles_per_access: int = 1
    sram_miss_rate: float = 0.02
    memory_parallelism: int = 4
    state: UnitState = UnitState.IDLE

    def __post_init__(self) -> None:
        if not 0.0 <= self.sram_miss_rate <= 1.0:
            raise ValueError(
                f"sram_miss_rate must be in [0, 1], got {self.sram_miss_rate}")
        if self.cycles_per_access <= 0:
            raise ValueError("cycles_per_access must be positive")

    def duration(self, task: ReadTask) -> int:
        """Cycles to seed one read."""
        sram_cycles = task.seeding_accesses * self.cycles_per_access
        misses = int(round(task.seeding_accesses * self.sram_miss_rate))
        burst = self.memory.burst_latency(
            total_bytes=misses * OCC_BLOCK_BYTES,
            accesses=misses,
            parallelism=self.memory_parallelism,
            row_hit_fraction=0.25,  # FM-index traffic is close to random
        ) if misses else 0
        return self.pipeline_overhead + sram_cycles + burst

    def start(self, task: ReadTask, now: int, load_latency: int = 1) -> int:
        """Begin seeding; returns the completion cycle."""
        if self.state is UnitState.BUSY:
            raise RuntimeError(f"SU {self.unit_id} already busy")
        self.state = UnitState.BUSY
        return now + load_latency + self.duration(task)

    def finish(self) -> None:
        """Mark the read done (driven by the engine at the cycle ``start``
        returned)."""
        if self.state is not UnitState.BUSY:
            raise RuntimeError(f"SU {self.unit_id} was not busy")
        self.state = UnitState.IDLE

    def stop(self) -> None:
        """Table III control: park the unit."""
        if self.state is UnitState.BUSY:
            raise RuntimeError(f"cannot stop busy SU {self.unit_id}")
        self.state = UnitState.STOP

    @property
    def idle(self) -> bool:
        return self.state is UnitState.IDLE
