"""Runtime-layer benchmarks: artifact caching and the sweep front-end.

The pair of fig13-style benchmarks is the cache layer's acceptance
measurement: the same eight-configuration buffer-depth DSE, once with the
experiment substrate (genome, FM-index, read set, workload) built from
scratch and once served from a warm artifact cache.  The cached run skips
genome synthesis, suffix-array construction, and read simulation, so its
JSON entry must come in measurably below the cold one.
"""

import time

import pytest

from repro.analysis.dse import sweep_buffer_depth
from repro.genome.datasets import get_dataset
from repro.runtime.artifacts import (
    cached_pipeline_inputs,
    cached_synthetic_workload,
)
from repro.runtime.cache import ArtifactCache

#: Eight buffer depths -> eight independent full simulations per sweep.
DEPTHS = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
GENOME_LENGTH = 400_000
READS = 500
SWEEP_READS = 200


def _build_substrate(cache):
    """The experiment substrate of a fig13-style run: pipeline inputs
    (genome + FM-index + reads) plus the synthetic DSE workload."""
    reference, reads, index = cached_pipeline_inputs(
        cache, length=GENOME_LENGTH, chromosomes=1, genome_seed=51,
        read_count=READS, read_seed=52)
    workload = cached_synthetic_workload(cache, get_dataset("H.s."),
                                         SWEEP_READS, seed=53)
    return reference, reads, index, workload


def _sweep(workload):
    return sweep_buffer_depth(workload, depths=DEPTHS)


def test_bench_fig13_sweep_cold(benchmark):
    """Substrate built from scratch + 8-config sweep (the old path)."""

    def cold():
        _, _, _, workload = _build_substrate(None)
        return _sweep(workload)

    points = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert len(points) == len(DEPTHS)


def test_bench_fig13_sweep_cached(benchmark, tmp_path):
    """Same sweep with every artifact served from a warm cache."""
    cache = ArtifactCache(tmp_path / "warm")
    _build_substrate(cache)  # warm outside the measurement
    assert cache.stats.stores == 4

    def warm():
        _, _, _, workload = _build_substrate(cache)
        return _sweep(workload)

    points = benchmark.pedantic(warm, rounds=1, iterations=1)
    assert len(points) == len(DEPTHS)
    assert cache.stats.corrupt == 0
    assert cache.stats.hits >= 4


def test_cached_substrate_faster_than_cold(tmp_path):
    """Direct wall-clock check (independent of the bench harness): warm
    substrate setup must beat cold rebuild — it replaces genome synthesis,
    suffix-array construction, and read simulation with four pickle loads."""
    cache = ArtifactCache(tmp_path / "warm")
    _build_substrate(cache)  # populate

    start = time.perf_counter()
    _build_substrate(None)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    _build_substrate(cache)
    warm_seconds = time.perf_counter() - start

    assert cache.stats.hits == 4
    assert warm_seconds < cold_seconds, (
        f"warm substrate setup ({warm_seconds:.3f}s) should beat cold "
        f"rebuild ({cold_seconds:.3f}s)")


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
