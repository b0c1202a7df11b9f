"""Figure 14: sensitivity to multiple datasets.

(a) NvWa speedup over the 16-thread CPU baseline on six 2nd-generation
    (short read) datasets and three 3rd-generation (long read) datasets —
    285.6-357x short, 259-272x long in the paper.
(b) Hit-length interval mass per short-read dataset — roughly similar
    across datasets, which is why one NvWa configuration generalises.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.distributions import dataset_interval_table
from repro.baselines.platforms import CPU_BWA_MEM, WorkloadStats
from repro.core import baseline
from repro.core.workload import synthetic_workload
from repro.experiments.common import ExperimentResult, resolve_execution
from repro.genome.datasets import (
    DatasetProfile,
    long_read_datasets,
    short_read_datasets,
)
from repro.runtime.sweep import simulate_many


def run(reads_per_dataset: int = 800, seed: int = 4,
        profiles: Optional[Sequence[DatasetProfile]] = None,
        parallelism: Optional[int] = None,
        ) -> ExperimentResult:
    """Regenerate Fig 14(a)'s speedups and Fig 14(b)'s distributions."""
    parallelism = resolve_execution(parallelism)
    profiles = list(profiles) if profiles is not None else \
        short_read_datasets() + long_read_datasets()

    config = baseline.nvwa()
    workloads = [synthetic_workload(profile, reads_per_dataset,
                                    seed=seed + idx)
                 for idx, profile in enumerate(profiles)]
    results = simulate_many([(config, workload, None)
                             for workload in workloads],
                            parallelism=parallelism)

    rows = []
    speedups = {}
    for profile, workload, result in zip(profiles, workloads, results):
        stats = WorkloadStats.from_workload(workload)
        cpu_kreads = CPU_BWA_MEM.kreads_per_second(stats)
        nvwa_kreads = result.kreads_per_second
        speedup = nvwa_kreads / cpu_kreads
        speedups[profile.name] = speedup
        rows.append({"dataset": profile.name,
                     "kind": "long" if profile.long_read else "short",
                     "nvwa_kreads_per_s": round(nvwa_kreads, 1),
                     "cpu_kreads_per_s": round(cpu_kreads, 2),
                     "speedup_vs_cpu": round(speedup, 1)})

    interval_table = dataset_interval_table(short_read_datasets(),
                                            samples_per_dataset=10_000,
                                            seed=seed)
    for name, mass in interval_table.items():
        rows.append({"dataset": name, "kind": "intervals (Fig 14b)",
                     "mass_le16": round(mass[0], 3),
                     "mass_17_32": round(mass[1], 3),
                     "mass_33_64": round(mass[2], 3),
                     "mass_65_128": round(mass[3], 3)})

    shorts = [s for name, s in speedups.items()
              if not name.endswith("-long")]
    longs = [s for name, s in speedups.items() if name.endswith("-long")]
    result = ExperimentResult(
        exhibit="Figure 14",
        title="Performance of NvWa on multiple short and long read datasets",
        rows=rows,
        paper={"short_read_speedups": "285.6x - 357x",
               "long_read_speedups": "259x - 272x",
               "observation": "2nd-gen datasets share a similar hit "
                              "distribution, so the fixed configuration "
                              "generalises"},
        notes=f"measured short-read speedups {min(shorts):.0f}-"
              f"{max(shorts):.0f}x, long-read "
              f"{min(longs):.0f}-{max(longs):.0f}x" if longs else "",
    )
    result.speedups = speedups
    result.interval_table = interval_table
    return result
