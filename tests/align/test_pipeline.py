"""End-to-end aligner tests: accuracy on simulated reads."""

import random

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.genome.reads import ErrorModel, Read, ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.genome.sequence import reverse_complement


@pytest.fixture(scope="module")
def reference():
    return SyntheticReference(length=60_000, chromosomes=2, seed=33).build()


@pytest.fixture(scope="module")
def aligner(reference):
    return SoftwareAligner(reference, occ_interval=64)


def true_linear_start(reference, read):
    return reference.offsets[read.chrom] + read.position


class TestAccuracyErrorFree:
    def test_recovers_true_positions(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=80,
                            error_model=ErrorModel(0, 0, 0), seed=1)
        reads = sim.simulate(30)
        correct = 0
        for idx, read in enumerate(reads):
            result = aligner.align(read, idx)
            assert result.aligned, f"read {idx} unaligned"
            truth = true_linear_start(reference, read)
            start = result.best.ref_start - (
                result.best.read_start if not result.best.reverse
                else len(read.sequence) - result.best.read_end)
            if abs(start - truth) <= 2:
                correct += 1
        assert correct >= 28  # allow repeat-region ambiguity

    def test_perfect_read_scores_full(self, reference, aligner):
        chrom = reference.chromosomes[0]
        read = Read("r", chrom.sequence[1000:1080])
        result = aligner.align(read)
        assert result.best.score == 80
        assert str(result.best.cigar) == "80M"

    def test_strand_detection(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=80,
                            error_model=ErrorModel(0, 0, 0), seed=2)
        reads = sim.simulate(40)
        agree = sum(1 for idx, read in enumerate(reads)
                    if aligner.align(read, idx).best is not None
                    and aligner.align(read, idx).best.reverse == read.reverse)
        assert agree >= 36


class TestAccuracyWithErrors:
    def test_aligns_noisy_reads(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=101, seed=3)
        reads = sim.simulate(25)
        aligned = sum(1 for idx, r in enumerate(reads)
                      if aligner.align(r, idx).aligned)
        assert aligned >= 23

    def test_mismatched_read_still_maps_near_truth(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=101,
                            error_model=ErrorModel(0.01, 0, 0), seed=4)
        for idx, read in enumerate(sim.simulate(10)):
            result = aligner.align(read, idx)
            if not result.aligned:
                continue
            truth = true_linear_start(reference, read)
            assert abs(result.best.ref_start - truth) < 150


class TestPipelineStructure:
    def test_hits_follow_table3_format(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=101, seed=5)
        read = sim.simulate(1)[0]
        result = aligner.align(read, read_idx=7)
        assert result.hits
        for hit in result.hits:
            assert hit.read_idx == 7
            assert 0 <= hit.read_start < hit.read_end <= len(read.sequence)
            assert 0 <= hit.ref_start <= hit.ref_end <= len(reference)
            assert hit.hit_len == hit.read_end - hit.read_start

    def test_hit_seed_is_an_exact_match_inside_the_chain(self, reference,
                                                        aligner):
        sim = ReadSimulator(reference, read_length=101, seed=5)
        for read in sim.simulate(6):
            for hit in aligner.align(read).hits:
                read_pos, ref_pos, length = hit.seed
                oriented = (reverse_complement(read.sequence) if hit.reverse
                            else read.sequence)
                assert hit.read_start <= read_pos < read_pos + length \
                    <= hit.read_end
                assert oriented[read_pos:read_pos + length] == \
                    aligner.text[ref_pos:ref_pos + length]

    def test_seed_must_lie_inside_the_hit(self, aligner):
        from repro.core.interface import Hit
        spans = dict(read_idx=0, hit_idx=0, reverse=False, read_start=10,
                     read_end=60, ref_start=100, ref_end=200)
        Hit(**spans, seed=(10, 120, 50))
        for seed in ((5, 120, 20), (40, 120, 21), (20, 190, 20),
                     (20, 120, 0)):
            with pytest.raises(ValueError, match="outside the hit"):
                Hit(**spans, seed=seed)
        with pytest.raises(ValueError, match="no seed"):
            aligner.extend_hit([("A" * 70, Hit(**spans))])

    def test_hit_indices_sequential(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=101, seed=6)
        result = aligner.align(sim.simulate(1)[0])
        assert [h.hit_idx for h in result.hits] == \
            list(range(len(result.hits)))

    def test_work_is_measured(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=101, seed=7)
        result = aligner.align(sim.simulate(1)[0])
        assert result.work.seeding_accesses > 0
        assert result.work.extension_cells > 0
        assert result.work.hit_count == len(result.hits)

    def test_junk_read_unaligned(self, aligner):
        # A read highly unlikely to have a 19bp exact match anywhere.
        rng = random.Random(99)
        junk = "".join(rng.choice("ACGT") for _ in range(101))
        result = aligner.align(Read("junk", junk))
        # Either no hits at all or low-score alignment; assert no crash and
        # sane structure.
        assert result.work.seeding_accesses > 0

    def test_align_all_indexes_reads(self, reference, aligner):
        sim = ReadSimulator(reference, read_length=101, seed=8)
        results = aligner.align_all(sim.simulate(3))
        for idx, result in enumerate(results):
            for hit in result.hits:
                assert hit.read_idx == idx
