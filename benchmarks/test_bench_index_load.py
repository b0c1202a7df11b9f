"""Index store benchmarks: cold build vs zero-copy mmap attach.

The acceptance measurement for the on-disk index store
(:mod:`repro.seeding.store`): building the FMD-index from scratch pays for
a suffix-array construction over both strands, while attaching maps the checked-in bytes
read-only and touches only the 48-byte prefix plus the JSON header.  The
worker-spawn benchmark plays the role of N pool initializers racing to get
an index — the exact cost :func:`repro.runtime.sharded._init_align_worker`
pays per worker with and without ``index_path``.
"""

import time

import pytest

from repro.genome.reference import SyntheticReference
from repro.genome import sequence as seq
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.store import IndexStore, build_index_store

GENOME_LENGTH = 200_000
WORKERS = 8


@pytest.fixture(scope="module")
def bench_reference():
    return SyntheticReference(length=GENOME_LENGTH, chromosomes=2,
                              seed=21).build()


@pytest.fixture(scope="module")
def bench_store(bench_reference, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench_idx") / "bench.idx"
    return build_index_store(bench_reference, path)


def test_bench_index_cold_build(benchmark, bench_reference, tmp_path):
    """Full build: BWT + suffix array + checksummed serialization."""
    counter = iter(range(1_000))

    def cold():
        out = tmp_path / f"cold{next(counter)}.idx"
        return build_index_store(bench_reference, out)

    store = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert store.meta["text_length"] == GENOME_LENGTH


def test_bench_index_mmap_attach(benchmark, bench_store):
    """Structural open + fmindex() wiring over an existing store file."""

    def attach():
        return IndexStore.open(bench_store.path).fmindex()

    index = benchmark.pedantic(attach, rounds=1, iterations=1)
    assert index.length == GENOME_LENGTH


def test_bench_worker_spawn_with_store(benchmark, bench_store):
    """N pool initializers attaching the shared store (the new path)."""

    def spawn_all():
        return [IndexStore.open(bench_store.path).fmindex()
                for _ in range(WORKERS)]

    indexes = benchmark.pedantic(spawn_all, rounds=1, iterations=1)
    assert len(indexes) == WORKERS
    assert all(ix.length == GENOME_LENGTH for ix in indexes)


def test_mmap_attach_at_least_10x_faster_than_build(bench_reference,
                                                    bench_store):
    """Direct wall-clock acceptance check, independent of the harness.

    The attach path must beat a from-scratch index build by >= 10x; the
    margin is normally orders of magnitude, so 10x leaves headroom for a
    noisy CI runner while still failing if attach ever silently degrades
    into a rebuild.
    """
    codes = seq.encode(bench_reference.concatenated())

    start = time.perf_counter()
    BidirectionalFMIndex(codes)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    attached = IndexStore.open(bench_store.path).fmindex()
    attach_seconds = time.perf_counter() - start

    assert attached.length == GENOME_LENGTH
    assert attach_seconds * 10 < build_seconds, (
        f"mmap attach ({attach_seconds:.4f}s) should be >= 10x faster "
        f"than a cold build ({build_seconds:.4f}s)")


def test_attached_index_queries_match_memory(bench_reference, bench_store):
    """The speedup is only meaningful if the answers are the same bits."""
    codes = seq.encode(bench_reference.concatenated())
    memory = BidirectionalFMIndex(codes)
    mapped = bench_store.fmindex()
    for start in (0, 1_000, 50_000, GENOME_LENGTH - 64):
        pattern = codes[start:start + 32]
        a, b = memory.search(pattern), mapped.search(pattern)
        assert (a.k, a.l, a.s) == (b.k, b.l, b.s)
        assert memory.locate(a, 32) == mapped.locate(b, 32)
