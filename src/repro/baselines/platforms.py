"""Analytic models of the comparison platforms (Table I, Fig 11).

We cannot run the paper's Xeon/A100 testbed or the GenAx/GenCache RTL, and
the paper itself compares against *reported* numbers for the accelerators
("we evaluate the performance of GenAx, GenCache, SeedEx, and ERT using
data reported by the original work"). This module therefore provides:

- :class:`SoftwarePlatform` — a per-read cost model for the CPU and GPU
  baselines, driven by the same workload statistics the simulator measures
  (so Fig 14's per-dataset speedups respond to the data), with constants
  calibrated against the paper's NA12878 measurements;
- :class:`ReportedPlatform` — fixed reported throughput/power points for
  the FPGA/ASIC/PIM comparators, exactly the paper's methodology.

Power notes: the paper's "energy reduction" factors are power ratios
against NvWa (14.21 × 7.685 W ≈ 109 W for the dual-Xeon; the GenAx and
GenCache powers of 24.7 W and 33.4 W back-solve *consistently* from both
the energy-reduction and the throughput-per-Watt figures, which pins the
interpretation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.units import NS_PER_S, READS_PER_KREAD
from repro.core.workload import Workload


@dataclass(frozen=True)
class WorkloadStats:
    """Summary statistics the analytic platform models consume."""

    reads: int
    mean_seeding_accesses: float
    mean_hits_per_read: float
    mean_cells_per_hit: float

    @classmethod
    def from_workload(cls, workload: Workload) -> "WorkloadStats":
        if len(workload) == 0:
            raise ValueError("cannot summarise an empty workload")
        total_cells = sum(h.query_len * h.ref_len
                          for t in workload.tasks for h in t.hits)
        total_hits = workload.total_hits
        return cls(
            reads=len(workload),
            mean_seeding_accesses=sum(t.seeding_accesses
                                      for t in workload.tasks) / len(workload),
            mean_hits_per_read=total_hits / len(workload),
            mean_cells_per_hit=total_cells / total_hits if total_hits else 0.0,
        )


@dataclass(frozen=True)
class SoftwarePlatform:
    """Per-read cost model for software baselines (CPU BWA-MEM, GPU GASAL2).

    time_per_read = seeding_accesses · ns_per_access
                  + hits · cells_per_hit · ns_per_cell
                  + overhead_ns, divided across threads at an efficiency.

    Defaults for the two presets are calibrated so the NA12878-like
    workload lands near the paper's measured points (~100 Kreads/s for the
    16-thread CPU, ~245 Kreads/s for GASAL2).
    """

    name: str
    category: str
    threads: int
    ns_per_access: float
    ns_per_cell: float
    overhead_ns: float
    parallel_efficiency: float
    power_watts: float

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if not 0.0 < self.parallel_efficiency <= 1.0:
            raise ValueError("parallel_efficiency must be in (0, 1]")
        if min(self.ns_per_access, self.ns_per_cell, self.overhead_ns) < 0:
            raise ValueError("cost parameters must be non-negative")
        if self.power_watts <= 0:
            raise ValueError("power must be positive")

    def time_per_read_ns(self, stats: WorkloadStats) -> float:
        """Single-thread nanoseconds to fully align one read."""
        seeding = stats.mean_seeding_accesses * self.ns_per_access
        extension = (stats.mean_hits_per_read * stats.mean_cells_per_hit
                     * self.ns_per_cell)
        return seeding + extension + self.overhead_ns

    def reads_per_second(self, stats: WorkloadStats) -> float:
        per_thread = NS_PER_S / self.time_per_read_ns(stats)
        return per_thread * self.threads * self.parallel_efficiency

    def kreads_per_second(self, stats: WorkloadStats) -> float:
        return self.reads_per_second(stats) / READS_PER_KREAD


@dataclass(frozen=True)
class ReportedPlatform:
    """A comparator evaluated from its published NA12878 numbers."""

    name: str
    category: str
    kreads_per_second_reported: float
    power_watts: float

    def kreads_per_second(self, stats: WorkloadStats) -> float:
        """Reported numbers do not respond to workload statistics."""
        return self.kreads_per_second_reported

    def reads_per_second(self, stats: WorkloadStats) -> float:
        return self.kreads_per_second_reported * READS_PER_KREAD


#: 16-thread BWA-MEM on 2x Xeon E5-2620 v4 (Table I). Paper point:
#: 49150/493 ≈ 99.7 Kreads/s; power 14.21 x 7.685 W ≈ 109 W.
CPU_BWA_MEM = SoftwarePlatform(
    name="CPU-BWA-MEM", category="CPU", threads=16,
    ns_per_access=55.0,      # LLC-missing FM-index step
    ns_per_cell=0.7,         # SSE-vectorised SW cell
    overhead_ns=90_000.0,    # chaining, MAPQ, SAM emission, malloc traffic
    parallel_efficiency=0.75,
    power_watts=109.0)

#: GASAL2 on the A100 (Table I). Paper point: 49150/200 ≈ 245.8 Kreads/s;
#: power 5.60 x 7.685 W ≈ 43 W average draw during the run.
GPU_GASAL2 = SoftwarePlatform(
    name="GPU-GASAL2", category="GPU", threads=6912,
    ns_per_access=48.0,      # seeding stays on the host path
    ns_per_cell=0.95,        # per-thread cell rate at 1.41 GHz
    overhead_ns=11_000_000.0,  # batching + PCIe transfers amortised per read
    parallel_efficiency=0.4,
    power_watts=43.0)

#: FPGA ERT+SeedEx (reported): 49150/151 ≈ 325.5 Kreads/s.
FPGA_ERT_SEEDEX = ReportedPlatform(
    name="FPGA-ERT+SeedEx", category="FPGA",
    kreads_per_second_reported=325.5, power_watts=60.0)

#: GenAx (reported): 49150/12.11 ≈ 4058 Kreads/s; 24.7 W back-solved from
#: the paper's 52.62x throughput-per-Watt figure.
GENAX = ReportedPlatform(name="ASIC-GenAx", category="ASIC",
                         kreads_per_second_reported=4058.6,
                         power_watts=24.73)

#: GenCache (reported): 49150/2.30 ≈ 21370 Kreads/s; 33.4 W back-solved
#: from the 13.50x throughput-per-Watt figure.
GENCACHE = ReportedPlatform(name="PIM-GenCache", category="PIM",
                            kreads_per_second_reported=21369.6,
                            power_watts=33.37)

#: All comparison platforms in Fig 11 presentation order.
PLATFORMS: Dict[str, object] = {
    "CPU-BWA-MEM": CPU_BWA_MEM,
    "GPU-GASAL2": GPU_GASAL2,
    "FPGA-ERT+SeedEx": FPGA_ERT_SEEDEX,
    "ASIC-GenAx": GENAX,
    "PIM-GenCache": GENCACHE,
}


def paper_reported_nvwa_kreads() -> float:
    """The paper's own NvWa throughput (49150 Kreads/s) for reference."""
    return 49150.0


def speedups_against(nvwa_kreads: float,
                     stats: WorkloadStats) -> Dict[str, float]:
    """NvWa speedup over every platform at the given workload."""
    if nvwa_kreads <= 0:
        raise ValueError("nvwa_kreads must be positive")
    return {name: nvwa_kreads / platform.kreads_per_second(stats)
            for name, platform in PLATFORMS.items()}
