"""Extension Unit (EU) cycle model.

The EU datapath is the systolic array of Darwin [60]; its per-hit latency
is Formula 3, the matrix fill (the traceback walk overlaps the next hit's
fill, footnote 4). The unit
advertises its ``pe_number`` through the Table III control interface —
that is the only thing the Coordinator needs to know about it, which is
what makes the scheduling design loosely coupled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.interface import UnitState
from repro.core.workload import HitTask
from repro.extension.bitap import genasm_latency
from repro.extension.systolic import gact_tiled_latency, matrix_fill_latency

#: Reference windows longer than this use Darwin's GACT tiling (Sec. V-F:
#: long reads run "by using the iterative scheme of GACT").
GACT_TILE_SIZE = 256

#: Bit-vector word width of the GenASM-style datapath.
GENASM_WORD_BITS = 64

#: PEs consumed by one GenASM word lane (update + candidate logic for a
#: 64-bit vector costs ~16 PEs of systolic-array area).
GENASM_PES_PER_LANE = 16


@dataclass
class ExtensionUnit:
    """One EU: a seed-extension datapath plus control state.

    Two datapaths are modelled, per the paper's Sec. IV-C discussion that
    the scheduling design "is orthogonal to" the choice of EU internals:

    - ``systolic`` (default): Darwin's array, Formula 3 latency;
    - ``genasm``: a GenASM-style bit-parallel unit whose ``pe_count``
      budget buys parallel 64-bit vector lanes instead of PEs.
    """

    unit_id: int
    pe_count: int
    datapath: str = "systolic"
    load_overhead: int = 2
    state: UnitState = UnitState.IDLE
    current_hit: Optional[HitTask] = None
    busy_cycles: int = field(default=0)
    #: Σ useful DP cells computed — useful_cells / (busy_cycles · pe_count)
    #: is the PE-level efficiency behind Fig 12(c/d)'s utilization metric.
    useful_cells: int = field(default=0)

    def __post_init__(self) -> None:
        if self.pe_count <= 0:
            raise ValueError(f"pe_count must be positive, got {self.pe_count}")
        if self.datapath not in ("systolic", "genasm"):
            raise ValueError(
                f"datapath must be systolic or genasm, got {self.datapath!r}")

    def duration(self, hit: HitTask) -> int:
        """Cycles to extend one hit on this unit's datapath.

        Systolic: one Formula 3 pass for short-read windows, GACT tiles
        for long ones. GenASM: per-text-character vector updates, with the
        PE budget spent on parallel word lanes.

        Darwin's traceback runs in a dedicated logic unit overlapped with
        the next hit's matrix fill (paper footnote 4 excludes it from the
        latency analysis for the same reason), so it never occupies the
        datapath and no datapath charges it here.
        """
        if self.datapath == "genasm":
            lanes = max(1, self.pe_count // GENASM_PES_PER_LANE)
            return self.load_overhead + genasm_latency(
                hit.query_len, hit.ref_len,
                word_bits=GENASM_WORD_BITS, unroll=lanes)
        if hit.ref_len > GACT_TILE_SIZE:
            return self.load_overhead + gact_tiled_latency(
                hit.ref_len, hit.query_len, self.pe_count,
                tile_size=GACT_TILE_SIZE)
        return self.load_overhead + matrix_fill_latency(
            hit.ref_len, hit.query_len, self.pe_count)

    def start(self, hit: HitTask, now: int) -> int:
        """Begin extension; returns the completion cycle."""
        if self.state is UnitState.BUSY:
            raise RuntimeError(f"EU {self.unit_id} already busy")
        self.state = UnitState.BUSY
        self.current_hit = hit
        duration = self.duration(hit)
        self.busy_cycles += duration
        self.useful_cells += hit.query_len * hit.ref_len
        return now + duration

    def finish(self) -> HitTask:
        """Complete the current hit; returns it for result bookkeeping."""
        if self.state is not UnitState.BUSY:
            raise RuntimeError(f"EU {self.unit_id} was not busy")
        hit = self.current_hit
        self.state = UnitState.IDLE
        self.current_hit = None
        return hit

    def stop(self) -> None:
        if self.state is UnitState.BUSY:
            raise RuntimeError(f"cannot stop busy EU {self.unit_id}")
        self.state = UnitState.STOP

    @property
    def idle(self) -> bool:
        return self.state is UnitState.IDLE
