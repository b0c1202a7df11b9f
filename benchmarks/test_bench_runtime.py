"""Runtime-layer benchmarks: a fig13-style sweep and the batch/sweep
front-ends.

``test_bench_fig13_sweep_cold`` times the end-to-end cost of one
eight-configuration buffer-depth DSE, including building its substrate
(genome, FM-index, read set, workload) from scratch, as every
``repro experiments`` run does.
"""

import pytest

from repro.analysis.dse import sweep_buffer_depth
from repro.core.workload import synthetic_workload
from repro.genome.datasets import get_dataset
from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.seeding.bidirectional import BidirectionalFMIndex

#: Eight buffer depths -> eight independent full simulations per sweep.
DEPTHS = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
GENOME_LENGTH = 400_000
READS = 500
SWEEP_READS = 200


def _build_substrate():
    """The experiment substrate of a fig13-style run: pipeline inputs
    (genome + FM-index + reads) plus the synthetic DSE workload."""
    reference = SyntheticReference(length=GENOME_LENGTH, chromosomes=1,
                                   seed=51).build()
    reads = ReadSimulator(reference, seed=52).simulate(READS)
    index = BidirectionalFMIndex(reference.concatenated(), occ_interval=128)
    workload = synthetic_workload(get_dataset("H.s."), SWEEP_READS, seed=53)
    return reference, reads, index, workload


def test_bench_fig13_sweep_cold(benchmark):
    """Substrate built from scratch + 8-config sweep."""

    def cold():
        _, _, _, workload = _build_substrate()
        return sweep_buffer_depth(workload, depths=DEPTHS)

    points = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert len(points) == len(DEPTHS)


def test_bench_batch_extension_kernel(benchmark):
    """Vectorized batch Smith-Waterman over 64 same-shaped jobs."""
    import random

    from repro.genome.sequence import random_sequence
    from repro.runtime.batch import smith_waterman_batch

    rng = random.Random(13)
    pairs = [(random_sequence(64, rng), random_sequence(96, rng))
             for _ in range(64)]

    results = benchmark.pedantic(
        lambda: smith_waterman_batch(pairs),
        rounds=1, iterations=1)
    assert len(results) == 64
    assert all(r.cells == 64 * 96 for r in results)


def test_bench_repeat_read_extension(benchmark):
    """A repeat read's hits in one batch call: 16 hits of 101 x 149 on
    identical repeat copies, so one distinct (read, window) pair.  Filling
    every hit instead (one stack of 16 and 16 tracebacks) took about
    5.4x as long on a 2-vCPU x86 container."""
    import random

    from repro.genome.sequence import random_sequence
    from repro.runtime.batch import smith_waterman_batch

    rng = random.Random(17)
    read = random_sequence(101, rng)
    window = random_sequence(24, rng) + read + random_sequence(24, rng)
    pairs = [(read, window)] * 16

    results = benchmark(lambda: smith_waterman_batch(pairs))
    assert len({id(r) for r in results}) == 1
    assert all(r.score == 101 and r.cells == 101 * 149 for r in results)


@pytest.mark.parametrize("parallelism", [1])
def test_bench_simulate_many_serial(benchmark, bench_workload, parallelism):
    """The sweep engine itself at the bench workload, serial reference."""
    from repro.core.config import NvWaConfig
    from repro.runtime.sweep import sim_jobs, simulate_many
    from dataclasses import replace

    base = NvWaConfig()
    configs = [replace(base, hits_buffer_depth=d) for d in (256, 1024)]

    results = benchmark.pedantic(
        lambda: simulate_many(sim_jobs(configs, bench_workload),
                              parallelism=parallelism),
        rounds=1, iterations=1)
    assert len(results) == 2
