"""The batch front-end and the one fill kernel match per-pair oracles."""

import random

import numpy as np
import pytest

from repro import obs
from repro.align.pipeline import SoftwareAligner
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import (
    NEG,
    fill_matrices,
    fill_matrices_scalar,
    smith_waterman,
)
from repro.genome import sequence as seq
from repro.genome.reads import Read, ReadSimulator
from repro.genome.reference import RepeatFamily, SyntheticReference
from repro.genome.sequence import as_codes
from repro.runtime import batch
from repro.runtime.batch import DEFAULT_MAX_BATCH, smith_waterman_batch
from tests.align.test_extension_oracle import observed, oracle
from tests.extension.test_needleman_wunsch import oracle_global_matrices

SCHEMES = (BWA_MEM_SCORING,
           ScoringScheme(match=2, mismatch=-7, gap_open=-5, gap_extend=-3))


def random_seq(rng, length):
    return "".join(rng.choice("ACGT") for _ in range(length))


class TestBatchKernel:
    def test_matches_serial_on_random_pairs(self):
        """Mixed shapes: mostly singleton groups, plus one group of 66
        that spans two kernel chunks and one empty pair."""
        rng = random.Random(5)
        pairs = []
        for _ in range(40):
            m = rng.randrange(8, 60)
            n = rng.randrange(8, 80)
            pairs.append((random_seq(rng, m), random_seq(rng, n)))
        pairs += [(random_seq(rng, 30), random_seq(rng, 45))
                  for _ in range(DEFAULT_MAX_BATCH + 2)]
        pairs.append(("", ""))
        rng.shuffle(pairs)
        batched = smith_waterman_batch(pairs)
        for (query, target), got in zip(pairs, batched):
            assert got == smith_waterman(query, target)

    def test_same_shape_grouping_matches(self):
        """65+ same-shaped pairs cross the chunk boundary; one singleton
        shape and one empty pair ride along."""
        rng = random.Random(6)
        pairs = [(random_seq(rng, 24), random_seq(rng, 32))
                 for _ in range(DEFAULT_MAX_BATCH + 3)]
        pairs.insert(17, (random_seq(rng, 11), random_seq(rng, 13)))
        pairs.insert(40, ("ACGT", ""))
        assert smith_waterman_batch(pairs) == [smith_waterman(q, t)
                                               for q, t in pairs]

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

    def test_duplicate_pairs_filled_once(self, monkeypatch):
        """Jobs with equal encoded codes share one fill and one result,
        whether given as strings, code arrays or lowercase; sharing only
        the read or only the window is not a duplicate."""
        rows = []
        real_fill = batch.fill_matrices

        def counting_fill(read_stack, ref_stack, scoring, local=True):
            rows.append(read_stack.shape[0])
            return real_fill(read_stack, ref_stack, scoring, local=local)

        monkeypatch.setattr(batch, "fill_matrices", counting_fill)
        rng = random.Random(8)
        three = [(random_seq(rng, 21), random_seq(rng, 34))
                 for _ in range(3)]
        query, target = random_seq(rng, 17), random_seq(rng, 26)
        other_query, other_target = random_seq(rng, 17), random_seq(rng, 26)
        cases = {
            "chunk boundary": (three * (DEFAULT_MAX_BATCH // 3 + 2), 3),
            "one side shared": ([(query, target), (query, other_target),
                                 (other_query, target)], 3),
            "str and codes": ([(query, target),
                               (as_codes(query), as_codes(target))], 1),
            "lowercase": ([(query, target),
                           (query.lower(), target.lower())], 1),
        }
        for name, (pairs, distinct) in cases.items():
            rows.clear()
            got = smith_waterman_batch(pairs)
            assert sum(rows) == distinct, name
            for (q, t), alignment in zip(pairs, got):
                assert alignment == smith_waterman(q, t), name
            assert len({id(a) for a in got}) == distinct, name

    def test_fill_span_counts_distinct_pairs(self):
        """Under an enabled tracer the fill span separates the logical
        jobs from the pairs and cells actually filled."""
        rng = random.Random(9)
        pairs = [(random_seq(rng, 10), random_seq(rng, 12))
                 for _ in range(2)] * 3 + [("ACGT", "")]
        tracer = obs.configure(enabled=True)
        try:
            smith_waterman_batch(pairs)
        finally:
            obs.configure(enabled=False)
        [span] = [e for e in tracer.events()
                  if e["name"] == "extension_fill"]
        assert span["cat"] == "runtime"
        assert span["args"]["pairs"] == 7
        assert span["args"]["distinct"] == 3
        assert span["args"]["cells_filled"] == 2 * 10 * 12
        assert obs.span("extension_fill", "runtime") is obs.NULL_SPAN


class TestFillKernel:
    """``fill_matrices`` is the one vectorised fill: every slice of a
    stack, k = 1 or more, equals an independent per-pair oracle."""

    @pytest.mark.parametrize("k", [1, 5])
    def test_local_slices_match_scalar_oracle(self, k):
        rng = random.Random(7 + k)
        for scheme in SCHEMES:
            reads = np.stack([as_codes(random_seq(rng, 16))
                              for _ in range(k)])
            refs = np.stack([as_codes(random_seq(rng, 20))
                             for _ in range(k)])
            filled = fill_matrices(reads, refs, scheme)
            assert len(filled) == k
            for j in range(k):
                single = fill_matrices_scalar(reads[j], refs[j], scheme)
                assert (filled[j].h == single.h).all()
                assert (filled[j].e == single.e).all()
                assert (filled[j].f == single.f).all()

    @pytest.mark.parametrize("k", [1, 5])
    def test_global_slices_match_independent_oracle(self, k):
        rng = random.Random(17 + k)
        for scheme in SCHEMES:
            reads = [random_seq(rng, 13) for _ in range(k)]
            refs = [random_seq(rng, 9) for _ in range(k)]
            filled = fill_matrices(np.stack([as_codes(r) for r in reads]),
                                   np.stack([as_codes(r) for r in refs]),
                                   scheme, local=False)
            for j in range(k):
                want = oracle_global_matrices(reads[j], refs[j], scheme)
                got = filled[j]
                for i in range(14):
                    for c in range(10):
                        for mat, oracle in zip((got.h, got.e, got.f), want):
                            if (i, c) in oracle:
                                assert mat[i, c] == oracle[(i, c)]
                            else:
                                assert mat[i, c] <= NEG // 2

    def test_fill_matrices_validation(self):
        with pytest.raises(ValueError):
            fill_matrices(np.zeros(4, dtype=np.int64),
                          np.zeros((1, 4), dtype=np.int64),
                          BWA_MEM_SCORING)
        with pytest.raises(ValueError):
            fill_matrices(np.zeros((2, 4), dtype=np.int64),
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

    def test_align_all_repeat_reference_equals_serial(self):
        """Reads from byte-identical repeat copies: most hits repeat a
        (strand, window) pair, so the batch kernel shares fills, yet
        every read matches the per-hit oracle (lowest hit index wins a
        tie) and still counts full-window cells for every hit."""
        rng = random.Random(61)
        family = RepeatFamily(seq.random_sequence(500, rng), 8, 0.0)
        reference = SyntheticReference(length=40_000, chromosomes=1,
                                       seed=61,
                                       repeat_families=[family]).build()
        aligner = SoftwareAligner(reference)
        pad, length = aligner.window_pad, 101
        reads = []
        for idx in range(24):
            chrom, start, end = reference.repeat_annotations[idx % 8]
            pos = rng.randrange(start + pad, end - pad - length + 1)
            fragment = reference.fetch(chrom, pos, pos + length)
            if idx % 2:
                fragment = seq.reverse_complement(fragment)
            reads.append(Read(read_id=f"copy_{idx}", sequence=fragment,
                              quality="I" * length, chrom=chrom,
                              position=pos, reverse=bool(idx % 2)))

        results = aligner.align_all(reads)
        shared = sum(
            len(r.hits) > len({(h.reverse, aligner.text[h.ref_start:h.ref_end])
                               for h in r.hits})
            for r in results)
        assert shared > len(reads) // 2
        serial = [oracle(aligner, read, idx)[:3]
                  for idx, read in enumerate(reads)]
        assert [observed(r) for r in results] == serial
        for r in results:
            assert r.work.extension_cells == sum(
                length * (h.ref_end - h.ref_start) for h in r.hits)
