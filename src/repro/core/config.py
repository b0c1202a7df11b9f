"""NvWa system configuration (paper Table I and Sec. V-A).

The paper's design point: 128 SUs, 70 EUs totalling 2880 PEs split
{16 PE × 28, 32 PE × 20, 64 PE × 16, 128 PE × 6} (solved from Equation 5
over the NA12878 hit distribution), 1 GHz, HBM 1.0, Hits Buffer depth 1024,
buffer switch threshold 75 %, idle-EU allocation trigger 15 %.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.sim.memory import HBM_1_0, MemorySpec

#: The paper's EU configuration: PE class -> unit count (Sec. V-A).
PAPER_EU_CONFIG: Dict[int, int] = {16: 28, 32: 20, 64: 16, 128: 6}

#: Total PEs in the paper's design.
PAPER_TOTAL_PES = 2880


@dataclass(frozen=True)
class NvWaConfig:
    """Full accelerator configuration.

    Three knobs select the scheduling mechanisms of the paper's ablations
    (Fig 11: +HUS, +OCRA, +HA) and the SUs+EUs baseline: ``eu_config``
    is the EU pool, hybrid or uniform (``uniform_variant()``);
    ``use_ocra`` picks the read allocator; ``allocator_policy`` picks the
    hit dispatch.
    """

    num_seeding_units: int = 128
    #: EU pool: ``(PE count, unit count)`` per class, PE counts strictly
    #: ascending. Units are numbered in this order.
    eu_config: Tuple[Tuple[int, int], ...] = tuple(
        sorted(PAPER_EU_CONFIG.items()))
    frequency_hz: float = 1e9

    # Coordinator parameters (Sec. IV-D).
    hits_buffer_depth: int = 1024
    switch_threshold: float = 0.75
    idle_trigger_fraction: float = 0.15
    allocation_batch_size: int = 64
    #: The Coordinator's hits-fragmentation fix (Fig 10 steps ❼-❾): move
    #: allocated hits past the offset and retry deferred ones first. Off,
    #: a batch only retires when *every* hit in it has been placed —
    #: head-of-line blocking, the problem Sec. IV-D describes.
    fragmentation_handling: bool = True
    #: Read SPM prefetching (Sec. IV-A): staged reads load in one cycle.
    #: Off, every read load pays the DRAM round trip.
    use_spm_prefetch: bool = True
    #: EU datapath: "systolic" (Darwin-style, Formula 3) or "genasm"
    #: (bit-parallel). The schedulers are agnostic — the paper's loose
    #: coupling claim, exercised by the ablation benches.
    eu_datapath: str = "systolic"
    #: Record a per-event execution trace (Fig 3-style timelines). Off by
    #: default: tracing a large run costs memory.
    record_trace: bool = False
    #: Execute each extension functionally inside the EU (requires hit
    #: tasks with attached sequences): the report then carries Table III
    #: ExtensionResult records from a full-window ``smith_waterman`` over
    #: each hit's read x window. The software pipeline instead extends
    #: only the flanks of the chain's longest seed, so a hit's record can
    #: differ between the two; one hit-length definition for both is
    #: the ROADMAP item "One hit record from read to EU". Costs real SW
    #: compute.
    functional_execution: bool = False

    # Scheduling feature flags.
    use_ocra: bool = True          # One-Cycle Read Allocator vs batch
    #: Hit dispatch policy: "grouped" = the paper's Hits Allocator (Fig 10),
    #: "pooled" = basic method (2) (one shared group, optimal-first),
    #: "strict" = basic method (1) (per-class groups, optimal-only),
    #: "fifo" = no length matching at all (the SUs+EUs baseline).
    allocator_policy: str = "grouped"

    # Memory system.
    memory_spec: MemorySpec = HBM_1_0
    spm_capacity_reads: int = 4096

    #: Class set used for the Fig 12(e/f) assignment-quality metric. Kept
    #: fixed across ablations so uniform pools are judged against the same
    #: latency-optimal classes as the hybrid design.
    reference_classes: Tuple[int, ...] = (16, 32, 64, 128)

    def __post_init__(self) -> None:
        if self.num_seeding_units <= 0:
            raise ValueError("need at least one seeding unit")
        if not self.eu_config:
            raise ValueError("need at least one EU class")
        for pe, count in self.eu_config:
            if pe <= 0 or count <= 0:
                raise ValueError(
                    f"invalid EU class ({pe} PEs x {count} units)")
        if any(a >= b for a, b in zip(self.eu_classes, self.eu_classes[1:])):
            raise ValueError(
                f"EU classes must be strictly ascending, got {self.eu_classes}")
        if not 0.0 < self.switch_threshold <= 1.0:
            raise ValueError("switch_threshold must be in (0, 1]")
        if not 0.0 <= self.idle_trigger_fraction <= 1.0:
            raise ValueError("idle_trigger_fraction must be in [0, 1]")
        if self.hits_buffer_depth <= 0:
            raise ValueError("hits_buffer_depth must be positive")
        if self.allocation_batch_size <= 0:
            raise ValueError("allocation_batch_size must be positive")
        if self.allocator_policy not in ("grouped", "pooled", "strict",
                                         "fifo"):
            raise ValueError(
                f"allocator_policy must be grouped/pooled/strict/fifo, "
                f"got {self.allocator_policy!r}")
        if self.eu_datapath not in ("systolic", "genasm"):
            raise ValueError(
                f"eu_datapath must be systolic or genasm, "
                f"got {self.eu_datapath!r}")

    @property
    def eu_classes(self) -> Tuple[int, ...]:
        """PE counts of the EU classes, ascending."""
        return tuple(pe for pe, _ in self.eu_config)

    @property
    def num_extension_units(self) -> int:
        return sum(count for _, count in self.eu_config)

    @property
    def total_pes(self) -> int:
        return sum(pe * count for pe, count in self.eu_config)

    def uniform_variant(self) -> "NvWaConfig":
        """Same PE budget in equal-size units (Fig 9(b)'s strategy).

        Uses the median class size (the paper's toy uses 64-PE units) and
        as many units as the budget allows.
        """
        classes = self.eu_classes
        pe = classes[len(classes) // 2]
        count = max(1, self.total_pes // pe)
        return replace(self, eu_config=((pe, count),))

    def baseline_variant(self) -> "NvWaConfig":
        """The non-scheduled SUs+EUs design (all mechanisms off)."""
        uniform = self.uniform_variant()
        return replace(uniform, use_ocra=False, allocator_policy="fifo")


#: The paper's published configuration.
PAPER_CONFIG = NvWaConfig()
