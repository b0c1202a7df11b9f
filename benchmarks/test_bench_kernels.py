"""Kernel micro-benchmarks: the substrate's hot paths.

Not paper exhibits — these time the algorithmic kernels a user of the
library cares about (index construction, search, alignment, simulation),
and pin basic sanity on each result so a performance regression that
breaks correctness cannot pass silently.
"""

import random

import pytest

from repro.align.pipeline import PhaseWork, SoftwareAligner
from repro.genome.reference import Chromosome, ReferenceGenome
from repro.genome.sequence import encode, random_sequence, reverse_complement
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.bwt import suffix_array
from repro.seeding.fmindex import FMIndex
from repro.seeding.smem import find_smems
from repro.seeding.store import IndexStore, write_index_store
from repro.extension.bitap import myers_distances
from repro.extension.needleman_wunsch import needleman_wunsch
from repro.extension.smith_waterman import smith_waterman


@pytest.fixture(scope="module")
def text():
    return random_sequence(200_000, random.Random(7))


def test_bench_suffix_array_200k(benchmark, text):
    sa = benchmark.pedantic(lambda: suffix_array(encode(text)),
                            rounds=1, iterations=1)
    assert sa.size == len(text)


def test_bench_fmindex_build_100k(benchmark, text):
    index = benchmark.pedantic(lambda: FMIndex(text[:100_000]),
                               rounds=1, iterations=1)
    assert len(index) == 100_000


def test_bench_fmindex_count(benchmark, text):
    index = FMIndex(text[:50_000], occ_interval=128)
    pattern = text[1000:1031]

    count = benchmark(lambda: index.count(pattern))
    assert count >= 1


def test_bench_smem_per_read(benchmark, text):
    index = BidirectionalFMIndex(text[:50_000], occ_interval=128)
    rng = random.Random(8)
    read = text[2000:2101]

    smems = benchmark(lambda: find_smems(index, read, min_length=19))
    assert smems
    assert max(m.length for m in smems) >= 19


def test_bench_smem_per_read_store(benchmark, text, tmp_path):
    """``test_bench_smem_per_read`` over a store-attached (np.memmap) index,
    the path every served tier seeds through."""
    built = BidirectionalFMIndex(text[:50_000], occ_interval=128)
    path = tmp_path / "smem.idx"
    write_index_store(path, built, ReferenceGenome([Chromosome("bench", text[:50_000])]))
    index = IndexStore.open(path).fmindex()
    read = text[2000:2101]

    smems = benchmark(lambda: find_smems(index, read, min_length=19))
    assert smems == find_smems(built, read, min_length=19)
    assert max(m.length for m in smems) >= 19


def test_bench_collect_anchors_per_read(benchmark, text):
    """Pipeline Step 1 for one 101 bp reverse-strand read with one
    substitution: one SMEM pass over both strands, then locate. Seeding
    the read and its reverse complement in two passes, on separate indexes
    of T and reverse(T), took about 3.6x as long on a 2-vCPU x86 container."""
    aligner = SoftwareAligner(ReferenceGenome([Chromosome("bench", text[:50_000])]))
    read = list(reverse_complement(text[2000:2101]))
    read[60] = "A" if read[60] != "A" else "C"
    read = "".join(read)

    anchors = benchmark(lambda: aligner.collect_anchors(read, PhaseWork()))
    spans = sorted((a.read_start, a.read_end, a.ref_start, a.reverse) for a in anchors)
    # reverse-strand spans are on the reverse complement: mismatch at 100 - 60
    assert spans == [(0, 40, 2000, True), (41, 101, 2041, True)]


def test_bench_seed_extension_per_read(benchmark, text):
    """Pipeline Step 3 for eight 101 bp hits, one per read: four reads
    their seed covers whole (no DP) and four with one substitution at
    base 20, 40, 60 or 80 (DP on the flank past it).  The full-window
    local fill it replaced took about 2.6x as long on the same hits on a
    2-vCPU x86 container (7.1 vs 2.7 ms)."""
    aligner = SoftwareAligner(ReferenceGenome([Chromosome("bench", text[:50_000])]))
    reads = [text[start:start + 101] for start in range(1000, 9000, 1000)]
    for idx, pos in zip(range(4, 8), (20, 40, 60, 80)):
        read = list(reads[idx])
        read[pos] = "A" if read[pos] != "A" else "C"
        reads[idx] = "".join(read)
    jobs = []
    for read in reads:
        anchors = aligner.collect_anchors(read, PhaseWork())
        jobs += [(read, hit) for hit in aligner.build_hits(0, 101, anchors)]

    alignments = benchmark(lambda: aligner.extend_hit(jobs))
    assert len(jobs) == 8
    assert [a.score for a in alignments] == [101] * 4 + [96] * 4


def test_bench_smith_waterman_101bp(benchmark, text):
    read = text[3000:3101]
    window = text[2980:3130]

    alignment = benchmark(lambda: smith_waterman(read, window))
    assert alignment.score == 101


def test_bench_needleman_wunsch_101bp(benchmark, text):
    read = text[3000:3101]
    window = text[2990:3101]

    alignment = benchmark(lambda: needleman_wunsch(read, window))
    assert alignment.cigar.query_length == 101
    assert alignment.cigar.reference_length == 111


def test_bench_myers_101_vs_1k(benchmark, text):
    pattern = text[5000:5101]
    window = text[4800:5800]

    distances = benchmark(lambda: myers_distances(pattern, window))
    assert min(distances) == 0


def test_bench_accelerator_cycle_rate(benchmark):
    """Simulated cycles per wall-second of the full NvWa model."""
    from repro.core import NvWaAccelerator, baseline, synthetic_workload
    from repro.genome.datasets import get_dataset
    workload = synthetic_workload(get_dataset("H.s."), 1000, seed=9)

    report = benchmark.pedantic(
        lambda: NvWaAccelerator(baseline.nvwa()).run(workload),
        rounds=1, iterations=1)
    assert report.hits_processed == workload.total_hits
