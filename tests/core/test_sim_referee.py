"""The ``sim_sched`` benchmark's six design-point digests, checked in tier-1.

``perfbench/sim.py`` is the one source of the design points, the
workload (150 H.s. reads, seed 1), the report fingerprint and the pinned
SHA-256 digests. This test loads that file and runs each point on the
cycle simulator, so a drift in any modelled number fails the test suite,
not only a benchmark run.
"""

import importlib.util
import os
import sys

import pytest

from repro.core.accelerator import NvWaAccelerator
from repro.core.workload import synthetic_workload
from repro.genome.datasets import get_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, os.pardir, "perfbench")


def _load_bench():
    # sim.py imports its sibling ``harness`` module by name.
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_sim", os.path.join(PERFBENCH, "sim.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


BENCH = _load_bench()


@pytest.fixture(scope="module")
def reports():
    workload = synthetic_workload(get_dataset("H.s."), BENCH.POINT_READS,
                                  seed=BENCH.WORKLOAD_SEED)
    return workload, {name: NvWaAccelerator(config).run(workload)
                      for name, config in BENCH._points()}


def test_every_point_is_pinned(reports):
    assert sorted(reports[1]) == sorted(BENCH.PINNED)


@pytest.mark.parametrize("name", sorted(BENCH.PINNED))
def test_digest(reports, name):
    workload, report = reports[0], reports[1][name]
    assert report.hits_processed == workload.total_hits
    assert BENCH._digest(report) == BENCH.PINNED[name]
