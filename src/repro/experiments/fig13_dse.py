"""Figure 13: design-space exploration of the Coordinator parameters.

(a) Hits Buffer depth vs throughput / SU util / EU util — best at 1024.
(b) Interval count vs throughput and Coordinator power — 4 is the
    published trade-off point.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.dse import (
    best_tradeoff,
    sweep_buffer_depth,
    sweep_idle_trigger,
    sweep_interval_count,
    sweep_switch_threshold,
)
from repro.core.workload import Workload, synthetic_workload
from repro.experiments.common import ExperimentResult, resolve_execution
from repro.genome.datasets import get_dataset


def run(reads: int = 2500, seed: int = 3,
        depths: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096),
        interval_counts: Sequence[int] = (1, 2, 4, 8, 16),
        switch_thresholds: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
        idle_fractions: Sequence[float] = (0.0, 0.15, 0.4),
        workload: Optional[Workload] = None,
        parallelism: Optional[int] = None) -> ExperimentResult:
    """Regenerate the paper's two sweeps plus the two threshold knobs it
    fixes by example (75 % switch, 15 % idle trigger)."""
    parallelism = resolve_execution(parallelism)
    workload = workload if workload is not None else synthetic_workload(
        get_dataset("H.s."), reads, seed=seed)
    rows = []
    depth_points = sweep_buffer_depth(workload, depths=depths,
                                      parallelism=parallelism)
    for point in depth_points:
        rows.append({"sweep": "buffer_depth", "x": point.depth,
                     "kreads_per_s": round(point.kreads_per_second, 1),
                     "su_utilization": round(point.su_utilization, 3),
                     "eu_utilization": round(point.eu_utilization, 3)})

    interval_points = sweep_interval_count(workload,
                                           interval_counts=interval_counts,
                                           parallelism=parallelism)
    for point in interval_points:
        rows.append({"sweep": "intervals", "x": point.intervals,
                     "kreads_per_s": round(point.kreads_per_second, 1),
                     "coordinator_power_w": round(point.coordinator_power_w,
                                                  3),
                     "kreads_per_coord_watt": round(point.throughput_per_watt,
                                                    1)})

    for point in sweep_switch_threshold(workload,
                                        thresholds=switch_thresholds,
                                        parallelism=parallelism):
        rows.append({"sweep": "switch_threshold", "x": point.value,
                     "kreads_per_s": round(point.kreads_per_second, 1),
                     "su_utilization": round(point.su_utilization, 3),
                     "eu_utilization": round(point.eu_utilization, 3)})
    for point in sweep_idle_trigger(workload, fractions=idle_fractions,
                                    parallelism=parallelism):
        rows.append({"sweep": "idle_trigger", "x": point.value,
                     "kreads_per_s": round(point.kreads_per_second, 1),
                     "su_utilization": round(point.su_utilization, 3),
                     "eu_utilization": round(point.eu_utilization, 3)})

    best = best_tradeoff(interval_points)
    result = ExperimentResult(
        exhibit="Figure 13",
        title="Design space exploration: Hits Buffer depth and interval "
              "count",
        rows=rows,
        paper={"best_buffer_depth": 1024,
               "best_interval_count": 4,
               "rationale": "small buffers block/starve; large buffers "
                            "delay the first switch; more intervals raise "
                            "throughput but allocation logic power grows"},
        notes=f"best measured interval trade-off: {best.intervals} "
              f"intervals at {best.throughput_per_watt:.0f} "
              "Kreads/s per Coordinator-Watt",
    )
    result.depth_points = depth_points
    result.interval_points = interval_points
    return result
