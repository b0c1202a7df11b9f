"""Figure 12: resource utilization of NvWa vs the SUs+EUs baseline.

(a)/(b) SU utilization over time; (c)/(d) EU utilization; (e)/(f) whether
each hit reached its latency-optimal unit class. The paper runs 4000 reads
of 101 bp "for better representation".
"""

from __future__ import annotations

from typing import Optional

from repro.core import baseline
from repro.core.accelerator import NvWaAccelerator
from repro.core.workload import Workload, synthetic_workload
from repro.experiments.common import ExperimentResult
from repro.genome.datasets import get_dataset

#: Paper-reported utilization / quality figures for comparison.
PAPER_NUMBERS = {
    "nvwa_su_utilization": 0.971,
    "baseline_su_utilization": 0.2351,
    "nvwa_eu_utilization": 0.8536,
    "baseline_eu_utilization": 0.3231,
    "nvwa_quality_by_class": {16: 0.877, 32: 0.641, 64: 0.569, 128: 0.876},
    "baseline_quality_overall": 0.145,
}


def run(reads: int = 4000, seed: int = 2, bins: int = 50,
        workload: Optional[Workload] = None) -> ExperimentResult:
    """Regenerate Fig 12's six panels as summary rows + binned series."""
    workload = workload or synthetic_workload(get_dataset("H.s."), reads,
                                              seed=seed)
    nvwa = NvWaAccelerator(baseline.nvwa()).run(workload)
    base = NvWaAccelerator(baseline.sus_eus_baseline()).run(workload)

    nvwa_su_series = nvwa.su_trace.series(nvwa.cycles, bins=bins)
    base_su_series = base.su_trace.series(base.cycles, bins=bins)
    nvwa_eu_series = nvwa.eu_trace.series(nvwa.cycles, bins=bins)
    base_eu_series = base.eu_trace.series(base.cycles, bins=bins)

    rows = [
        {"panel": "(a) NvWa SU utilization",
         "average": round(nvwa.su_utilization, 4),
         "paper": PAPER_NUMBERS["nvwa_su_utilization"]},
        {"panel": "(b) SUs+EUs SU utilization",
         "average": round(base.su_utilization, 4),
         "paper": PAPER_NUMBERS["baseline_su_utilization"]},
        {"panel": "(c) NvWa EU utilization (PE-effective)",
         "average": round(nvwa.eu_effective_utilization, 4),
         "paper": PAPER_NUMBERS["nvwa_eu_utilization"]},
        {"panel": "(d) SUs+EUs EU utilization (PE-effective)",
         "average": round(base.eu_effective_utilization, 4),
         "paper": PAPER_NUMBERS["baseline_eu_utilization"]},
    ]
    for pe_class in (16, 32, 64, 128):
        rows.append({
            "panel": f"(e) NvWa hits optimally assigned, {pe_class}-PE class",
            "average": round(nvwa.assignment_quality.fraction(pe_class), 4),
            "paper": PAPER_NUMBERS["nvwa_quality_by_class"][pe_class]})
    rows.append({
        "panel": "(f) SUs+EUs hits optimally assigned (overall)",
        "average": round(base.assignment_quality.overall_fraction(), 4),
        "paper": PAPER_NUMBERS["baseline_quality_overall"]})

    result = ExperimentResult(
        exhibit="Figure 12",
        title="Resource utilization improvements and comparisons "
              f"({reads} reads)",
        rows=rows,
        paper=PAPER_NUMBERS,
        notes="EU utilization is PE-effective (busy fraction x useful "
              "cells per PE-cycle), the mismatch-sensitive measure the "
              "figure plots",
    )
    # Attach the binned series for plotting / bench assertions.
    result.series = {
        "nvwa_su": nvwa_su_series, "baseline_su": base_su_series,
        "nvwa_eu": nvwa_eu_series, "baseline_eu": base_eu_series,
    }
    result.reports = {"nvwa": nvwa, "baseline": base}
    from repro.analysis.plotting import utilization_panel
    result.panel = utilization_panel({
        "(a) NvWa SUs": nvwa_su_series,
        "(b) SUs+EUs SUs": base_su_series,
        "(c) NvWa EUs": nvwa_eu_series,
        "(d) SUs+EUs EUs": base_eu_series,
    })
    return result
