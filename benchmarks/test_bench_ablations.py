"""Ablation benches for the design choices DESIGN.md calls out.

Sec. IV-D motivates the grouped Hits Allocator against two basic methods:
per-class-only groups (method 1: "once the number of hits is more than
idle resources, hits can not be allocated") and one shared pool (method 2:
"short hits being executed by large computing units ... high execution
latency"). These benches demonstrate each regime:

- at the design point (NA12878-like workload matched to the EU mix) the
  grouped allocator beats the pooled one;
- under a mismatched distribution (the long-read profile) strict
  per-class allocation collapses while grouped degrades gracefully;
- SPM prefetch and the fragmentation write-back never hurt.
"""

from dataclasses import replace

import pytest

from conftest import run_once

from repro.core import NvWaAccelerator, baseline, synthetic_workload
from repro.genome.datasets import get_dataset


@pytest.fixture(scope="module")
def matched_workload():
    return synthetic_workload(get_dataset("H.s."), 1500, seed=5)


@pytest.fixture(scope="module")
def mismatched_workload():
    return synthetic_workload(get_dataset("H.s.-long"), 800, seed=6)


def _run(config, workload):
    return NvWaAccelerator(config).run(workload)


def test_bench_allocator_policies_matched(benchmark, matched_workload):
    """Design point: grouped beats the shared-pool basic method."""
    config = baseline.nvwa()

    def sweep():
        return {policy: _run(replace(config, allocator_policy=policy),
                             matched_workload)
                for policy in ("grouped", "pooled", "strict")}

    reports = run_once(benchmark, sweep)
    assert reports["grouped"].cycles < reports["pooled"].cycles
    # quality ordering: strict is optimal-only by construction
    assert reports["strict"].assignment_quality.overall_fraction() == 1.0
    assert reports["grouped"].assignment_quality.overall_fraction() > \
        reports["pooled"].assignment_quality.overall_fraction()


def test_bench_allocator_policies_mismatched(benchmark, mismatched_workload):
    """Method (1)'s failure mode: strict starves on a skewed distribution."""
    config = baseline.nvwa()

    def sweep():
        return {policy: _run(replace(config, allocator_policy=policy),
                             mismatched_workload)
                for policy in ("grouped", "strict")}

    reports = run_once(benchmark, sweep)
    assert reports["grouped"].cycles < reports["strict"].cycles
    assert reports["grouped"].eu_utilization > \
        reports["strict"].eu_utilization


def test_bench_spm_prefetch(benchmark, matched_workload):
    """The Read SPM hides the DRAM load latency (Sec. IV-A)."""
    config = baseline.nvwa()

    def sweep():
        with_spm = _run(config, matched_workload)
        without = _run(replace(config, use_spm_prefetch=False),
                       matched_workload)
        return with_spm, without

    with_spm, without = run_once(benchmark, sweep)
    assert with_spm.cycles <= without.cycles
    assert with_spm.hits_processed == without.hits_processed


def test_bench_fragmentation_handling(benchmark, mismatched_workload):
    """The Fig 10 write-back fix never loses to head-of-line blocking."""
    config = baseline.nvwa()

    def sweep():
        with_fix = _run(config, mismatched_workload)
        without = _run(replace(config, fragmentation_handling=False),
                       mismatched_workload)
        return with_fix, without

    with_fix, without = run_once(benchmark, sweep)
    assert with_fix.cycles <= without.cycles
    assert with_fix.hits_processed == without.hits_processed
    assert without.counters.get("head_of_line_stalls") > 0


def test_bench_scheduling_orthogonal_to_datapath(benchmark,
                                                 matched_workload):
    """The paper's orthogonality claim: the three schedulers also speed up
    a GenASM-style bit-parallel EU pool, not just Darwin's systolic one."""
    def sweep():
        out = {}
        for datapath in ("systolic", "genasm"):
            nvwa = _run(replace(baseline.nvwa(), eu_datapath=datapath),
                        matched_workload)
            base = _run(replace(baseline.sus_eus_baseline(),
                                eu_datapath=datapath), matched_workload)
            out[datapath] = base.cycles / nvwa.cycles
        return out

    speedups = run_once(benchmark, sweep)
    assert speedups["systolic"] > 1.5
    assert speedups["genasm"] > 1.5


def test_bench_equal_area_uniform_variant(benchmark, matched_workload):
    """Sec. IV-C: the '51 PEs x 5 units' equal-area uniform variant
    'still can not outperform our hybrid approach'."""
    hybrid = baseline.nvwa()
    # same PE budget spread over the same unit count, uniformly
    per_unit = hybrid.total_pes // hybrid.num_extension_units
    equal_area = replace(hybrid,
                         eu_config=((per_unit,
                                     hybrid.num_extension_units),))

    def sweep():
        return (_run(hybrid, matched_workload),
                _run(equal_area, matched_workload))

    hybrid_report, uniform_report = run_once(benchmark, sweep)
    assert hybrid_report.cycles < uniform_report.cycles
