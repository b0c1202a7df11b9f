"""Batched extension kernels are bit-identical to the serial kernel."""

import random

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.extension.scoring import BWA_MEM_SCORING
from repro.extension.smith_waterman import (
    fill_matrices,
    fill_matrices_batch,
    smith_waterman,
)
from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.genome.sequence import as_codes
from repro.runtime.batch import smith_waterman_batch
from tests.align.test_extension_oracle import observed, oracle


def random_seq(rng, length):
    return "".join(rng.choice("ACGT") for _ in range(length))


class TestBatchKernel:
    def test_matches_serial_on_random_pairs(self):
        rng = random.Random(5)
        pairs = []
        for _ in range(40):
            m = rng.randrange(8, 60)
            n = rng.randrange(8, 80)
            pairs.append((random_seq(rng, m), random_seq(rng, n)))
        batched = smith_waterman_batch(pairs, max_batch=8)
        for (query, target), got in zip(pairs, batched):
            want = smith_waterman(query, target)
            assert got.score == want.score
            assert got.cigar == want.cigar
            assert got.read_start == want.read_start
            assert got.ref_start == want.ref_start
            assert got.cells == want.cells

    def test_same_shape_grouping_matches(self):
        """All same-shaped: exercises the vectorized path end to end."""
        rng = random.Random(6)
        pairs = [(random_seq(rng, 24), random_seq(rng, 32))
                 for _ in range(12)]
        batched = smith_waterman_batch(pairs, max_batch=4)
        serial = [smith_waterman(q, t) for q, t in pairs]
        assert [b.score for b in batched] == [s.score for s in serial]
        assert [b.cigar for b in batched] == [s.cigar for s in serial]

    def test_empty_and_singleton(self):
        assert smith_waterman_batch([]) == []
        only = smith_waterman_batch([("ACGT", "ACGT")])
        assert len(only) == 1
        assert only[0].score == smith_waterman("ACGT", "ACGT").score

    def test_degenerate_sequences(self):
        batched = smith_waterman_batch([("", "ACGT"), ("ACGT", "")])
        for (q, t), got in zip([("", "ACGT"), ("ACGT", "")], batched):
            want = smith_waterman(q, t)
            assert got.score == want.score
            assert got.cigar == want.cigar

    def test_fill_matrices_batch_slices_match(self):
        rng = random.Random(7)
        import numpy as np
        reads = np.stack([as_codes(random_seq(rng, 16)) for _ in range(5)])
        refs = np.stack([as_codes(random_seq(rng, 20)) for _ in range(5)])
        batch = fill_matrices_batch(reads, refs, BWA_MEM_SCORING)
        assert len(batch) == 5
        for k in range(5):
            single = fill_matrices(reads[k], refs[k], BWA_MEM_SCORING)
            assert (batch[k].h == single.h).all()
            assert (batch[k].e == single.e).all()
            assert (batch[k].f == single.f).all()

    def test_fill_matrices_batch_validation(self):
        import numpy as np
        with pytest.raises(ValueError):
            fill_matrices_batch(np.zeros(4, dtype=np.int64),
                                np.zeros((1, 4), dtype=np.int64),
                                BWA_MEM_SCORING)
        with pytest.raises(ValueError):
            fill_matrices_batch(np.zeros((2, 4), dtype=np.int64),
                                np.zeros((3, 4), dtype=np.int64),
                                BWA_MEM_SCORING)


class TestBatchedPipeline:
    def test_align_all_batched_equals_serial(self):
        """``align_all`` extends through the batch kernel; every read
        must come out as one scalar ``smith_waterman`` per hit would."""
        reference = SyntheticReference(length=20_000, chromosomes=1,
                                       seed=31).build()
        reads = ReadSimulator(reference, read_length=101,
                              seed=32).simulate(40)
        aligner = SoftwareAligner(reference)
        serial = [oracle(aligner, read, idx)[:3]
                  for idx, read in enumerate(reads)]
        batched = [observed(r) for r in aligner.align_all(reads)]
        assert batched == serial
