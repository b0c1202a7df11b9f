"""Parallel evaluation of independent simulation jobs.

The Fig 11/13/14 sweeps all share one shape: run the full cycle simulator
once per ``(configuration, workload)`` pair, then read a handful of
summary statistics off each report.  The pairs are completely independent,
so they fan out across worker processes without changing a single number:
each worker runs the exact serial code (``NvWaAccelerator(config)
.run(workload)``), and results are returned in job order.

This is the one parallel path into the simulator: a workload is never
split, because the paper's throughput and utilization numbers come from
one continuous run (:class:`~repro.runtime.sharded.ShardedRunner`
shards alignment only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.accelerator import NvWaAccelerator
from repro.core.config import NvWaConfig
from repro.core.workload import Workload

#: One sweep job: configuration, workload, optional cycle cap.
SimJob = Tuple[NvWaConfig, Workload, Optional[int]]


@dataclass(frozen=True)
class SweepResult:
    """The summary statistics every sweep consumes."""

    cycles: int
    reads: int
    hits_processed: int
    kreads_per_second: float
    su_utilization: float
    eu_utilization: float
    eu_pe_efficiency: float

    @property
    def eu_effective_utilization(self) -> float:
        return self.eu_utilization * self.eu_pe_efficiency


def summarize(report) -> SweepResult:
    """:class:`SweepResult` from a full simulation report.

    Shared by the sweep workers and by callers that keep the full report
    around (e.g. the CLI's trace export, which needs the utilization
    traces the summary discards).
    """
    return SweepResult(
        cycles=report.cycles,
        reads=report.reads,
        hits_processed=report.hits_processed,
        kreads_per_second=report.throughput.kreads_per_second,
        su_utilization=report.su_utilization,
        eu_utilization=report.eu_utilization,
        eu_pe_efficiency=report.eu_pe_efficiency,
    )


def _evaluate(payload: Tuple[int, NvWaConfig, Workload, Optional[int]]
              ) -> Tuple[int, SweepResult]:
    job_id, config, workload, max_cycles = payload
    report = NvWaAccelerator(config).run(workload, max_cycles=max_cycles)
    return job_id, summarize(report)


def simulate_many(jobs: Sequence[SimJob],
                  parallelism: int = 1,
                  mp_context: Optional[str] = None) -> List[SweepResult]:
    """Evaluate every job; results in job order.

    ``parallelism=1`` runs the plain serial loop in-process.  Higher
    values fan jobs out over a process pool (via :func:`repro.runtime.
    sharded.run_resilient`, so a worker lost to the OOM killer replays
    only its job); each job's numbers are identical either way because
    every simulation is self-contained.
    """
    if parallelism <= 0:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    payloads = [(job_id, config, workload, max_cycles)
                for job_id, (config, workload, max_cycles)
                in enumerate(jobs)]
    if parallelism == 1 or len(payloads) <= 1:
        indexed = [_evaluate(p) for p in payloads]
    else:
        from repro.runtime.sharded import run_resilient

        indexed = run_resilient(_evaluate, payloads,
                                parallelism=parallelism,
                                mp_context=mp_context)
    indexed.sort(key=lambda item: item[0])
    return [result for _, result in indexed]


def sim_jobs(configs: Sequence[NvWaConfig], workload: Workload,
             max_cycles: Optional[int] = None) -> List[SimJob]:
    """Jobs sweeping ``configs`` over one shared workload (Fig 11/13)."""
    return [(config, workload, max_cycles) for config in configs]
