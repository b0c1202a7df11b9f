"""Figure 11: end-to-end throughput of NvWa against every baseline.

Two layers, as in the paper:

- the **ablation ladder** (SUs+EUs → +HUS → +OCRA → +HA) comes from full
  cycle simulations of each configuration on the same workload;
- the **platform comparison** (CPU/GPU/FPGA/GenAx/GenCache) uses the
  analytic/reported platform models, as the paper's own methodology does.

Absolute reads/sec will not match the authors' testbed; the required shape
is the ordering (NvWa > GenCache > GenAx > FPGA > GPU > CPU) and a
monotone, each-mechanism-helps ladder.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.platforms import (
    PLATFORMS,
    WorkloadStats,
    paper_reported_nvwa_kreads,
)
from repro.core import baseline
from repro.core.config import NvWaConfig
from repro.core.workload import Workload, synthetic_workload
from repro.experiments.common import ExperimentResult, resolve_execution
from repro.genome.datasets import get_dataset
from repro.runtime.sweep import sim_jobs, simulate_many

#: The paper's published speedups (Fig 11 text).
PAPER_SPEEDUPS = {
    "CPU-BWA-MEM": 493.0,
    "GPU-GASAL2": 200.0,
    "FPGA-ERT+SeedEx": 151.0,
    "ASIC-GenAx": 12.11,
    "PIM-GenCache": 2.30,
}

#: The paper's per-mechanism speedups.
PAPER_ABLATIONS = {"+HUS": 3.32, "+OCRA": 1.73, "+HA (NvWa)": 2.38}


def run(reads: int = 2000, seed: int = 1,
        workload: Optional[Workload] = None,
        base: Optional[NvWaConfig] = None,
        parallelism: Optional[int] = None) -> ExperimentResult:
    """Regenerate Fig 11: ablation ladder + platform speedups."""
    parallelism = resolve_execution(parallelism)
    workload = workload if workload is not None else synthetic_workload(
        get_dataset("H.s."), reads, seed=seed)
    stats = WorkloadStats.from_workload(workload)

    rungs = baseline.ablation_ladder(base)
    results = simulate_many(sim_jobs(list(rungs.values()), workload),
                            parallelism=parallelism)
    ladder: Dict[str, float] = {
        name: result.kreads_per_second
        for name, result in zip(rungs, results)}

    nvwa_kreads = ladder["+HA (NvWa)"]
    baseline_kreads = ladder["SUs+EUs"]

    rows = []
    previous = None
    for name, kreads in ladder.items():
        step = (previous and kreads / previous) or 1.0
        rows.append({"configuration": name,
                     "kreads_per_s": round(kreads, 1),
                     "speedup_vs_SUs+EUs": round(kreads / baseline_kreads, 2),
                     "step_speedup": round(step, 2),
                     "paper_step_speedup": PAPER_ABLATIONS.get(name)})
        previous = kreads
    for name, platform in PLATFORMS.items():
        plat_kreads = platform.kreads_per_second(stats)
        rows.append({"configuration": name,
                     "kreads_per_s": round(plat_kreads, 1),
                     "nvwa_speedup": round(nvwa_kreads / plat_kreads, 2),
                     "paper_nvwa_speedup": PAPER_SPEEDUPS[name]})

    return ExperimentResult(
        exhibit="Figure 11",
        title="Throughput comparison of NvWa to CPU, GPU, FPGA, and ASICs",
        rows=rows,
        paper={"nvwa_kreads_per_s": paper_reported_nvwa_kreads(),
               "speedups": PAPER_SPEEDUPS,
               "mechanism_speedups": PAPER_ABLATIONS},
        notes="simulated NvWa throughput "
              f"{nvwa_kreads:.0f} Kreads/s on the synthetic workload; "
              "platform rows use analytic/reported models (the paper's "
              "methodology for accelerator baselines)",
    )
