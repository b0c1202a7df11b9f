"""Smith-Waterman correctness: vectorized vs scalar oracle, known cases."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import encode, random_sequence
from repro.extension.scoring import BWA_MEM_SCORING, DARWIN_SCORING, ScoringScheme
from repro.extension.smith_waterman import (
    fill_matrices,
    fill_matrices_scalar,
    smith_waterman,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=30)
schemes = st.sampled_from([
    BWA_MEM_SCORING,
    DARWIN_SCORING,
    ScoringScheme(match=2, mismatch=-1, gap_open=-2, gap_extend=-1),
    ScoringScheme(match=1, mismatch=-1, gap_open=0, gap_extend=-1),
])


class TestKnownAlignments:
    def test_perfect_match(self):
        a = smith_waterman("ACGTACGT", "ACGTACGT")
        assert a.score == 8
        assert str(a.cigar) == "8M"
        assert a.read_span == 8 and a.ref_span == 8

    def test_substring_match(self):
        a = smith_waterman("CGTA", "AACGTAAA")
        assert a.score == 4
        assert a.ref_start == 2 and a.ref_end == 6

    def test_single_mismatch_kept_when_profitable(self):
        scheme = ScoringScheme(match=2, mismatch=-1, gap_open=-4,
                               gap_extend=-1)
        a = smith_waterman("AAAATAAAA", "AAAACAAAA", scoring=scheme)
        assert str(a.cigar) == "9M"
        assert a.score == 8 * 2 - 1

    def test_mismatch_clipped_with_harsh_penalty(self):
        # BWA scheme: mismatch -4 vs match 1 → better to align one side only.
        a = smith_waterman("AAAAATAAA", "AAAAACAAA")
        assert a.score == 5
        assert str(a.cigar) == "5M"

    def test_insertion(self):
        scheme = ScoringScheme(match=2, mismatch=-4, gap_open=-2,
                               gap_extend=-1)
        a = smith_waterman("ACGTTTACGT", "ACGTACGT", scoring=scheme)
        assert a.score == 8 * 2 - 2 - 2  # 8 matches, gap of 2
        assert "I" in str(a.cigar)
        a.validate_against(10)

    def test_deletion(self):
        scheme = ScoringScheme(match=2, mismatch=-4, gap_open=-2,
                               gap_extend=-1)
        a = smith_waterman("ACGTACGT", "ACGTTTACGT", scoring=scheme)
        assert "D" in str(a.cigar)
        a.validate_against(8)

    def test_no_similarity(self):
        a = smith_waterman("AAAA", "CCCC")
        assert a.score == 0
        assert a.cigar.ops == ()

    def test_empty_inputs(self):
        assert smith_waterman("", "ACGT").score == 0
        assert smith_waterman("ACGT", "").score == 0

    def test_cells_counted(self):
        a = smith_waterman("ACGT", "ACGTACGT")
        assert a.cells == 4 * 8


class TestAffineGapSemantics:
    def test_one_long_gap_beats_two_short(self):
        """Affine: opening costs once, so a single gap of 2 is preferred
        over two gaps of 1 when mismatches block the diagonal."""
        scheme = ScoringScheme(match=3, mismatch=-10, gap_open=-4,
                               gap_extend=-1)
        read = "AACCGGTT"
        ref = "AACCXXGGTT".replace("X", "A")  # AACCAAGGTT
        a = smith_waterman(read, ref, scoring=scheme)
        gap_runs = [(l, op) for l, op in a.cigar.ops if op == "D"]
        assert gap_runs == [(2, "D")]
        assert a.score == 8 * 3 - 4 - 2

    def test_score_matches_cigar_arithmetic(self):
        rng = random.Random(3)
        scheme = DARWIN_SCORING
        for _ in range(10):
            ref = random_sequence(80, rng)
            read = ref[10:60]
            a = smith_waterman(read, ref, scoring=scheme)
            recomputed = _score_from_cigar(a, read, ref, scheme)
            assert recomputed == a.score


def _score_from_cigar(alignment, read, ref, scheme):
    i, j = alignment.read_start, alignment.ref_start
    score = 0
    for length, op in alignment.cigar.ops:
        if op == "M":
            for _ in range(length):
                score += scheme.match if read[i] == ref[j] else scheme.mismatch
                i += 1
                j += 1
        elif op == "I":
            score += scheme.gap_cost(length)
            i += length
        elif op == "D":
            score += scheme.gap_cost(length)
            j += length
    return score


class TestVectorizedAgainstScalar:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs(self, seed):
        rng = random.Random(seed)
        read = random_sequence(rng.randint(1, 60), rng)
        ref = random_sequence(rng.randint(1, 60), rng)
        fast = fill_matrices(encode(read)[None], encode(ref)[None],
                             BWA_MEM_SCORING)[0]
        slow = fill_matrices_scalar(encode(read), encode(ref), BWA_MEM_SCORING)
        assert np.array_equal(fast.h, slow.h)
        assert np.array_equal(fast.e, slow.e)

    def test_alignment_equal_via_both_paths(self):
        rng = random.Random(9)
        ref = random_sequence(100, rng)
        read = ref[20:70]
        fast = smith_waterman(read, ref)
        slow = smith_waterman(read, ref, use_scalar=True)
        assert fast.score == slow.score
        assert str(fast.cigar) == str(slow.cigar)


@given(dna, dna, schemes)
@settings(max_examples=80, deadline=None)
def test_property_fast_equals_scalar(read, ref, scheme):
    fast = fill_matrices(encode(read)[None], encode(ref)[None], scheme)[0]
    slow = fill_matrices_scalar(encode(read), encode(ref), scheme)
    assert np.array_equal(fast.h, slow.h)


@given(dna, dna)
@settings(max_examples=50, deadline=None)
def test_property_alignment_is_consistent(read, ref):
    a = smith_waterman(read, ref)
    a.validate_against(len(read))
    assert a.score >= 0
    # alignment score never exceeds perfect-match upper bound
    assert a.score <= min(len(read), len(ref)) * BWA_MEM_SCORING.match


@given(dna)
@settings(max_examples=30, deadline=None)
def test_property_self_alignment_is_perfect(text):
    a = smith_waterman(text, text)
    assert a.score == len(text) * BWA_MEM_SCORING.match
    assert str(a.cigar) == f"{len(text)}M"
