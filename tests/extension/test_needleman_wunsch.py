"""Global alignment tests, including a scalar DP oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import random_sequence
from repro.extension.needleman_wunsch import needleman_wunsch
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme

dna = st.text(alphabet="ACGT", min_size=1, max_size=25)


def oracle_global_matrices(read, ref, scheme):
    """Plain dict-based affine global DP, written independently.

    Returns the ``H``, ``E`` and ``F`` dicts keyed by ``(i, j)``; a cell
    missing from ``E``/``F`` is minus infinity.
    """
    neg = float("-inf")
    m, n = len(read), len(ref)
    H = {(0, 0): 0}
    E = {}
    F = {}
    for i in range(1, m + 1):
        H[(i, 0)] = scheme.gap_open + scheme.gap_extend * i
        E[(i, 0)] = H[(i, 0)]
    for j in range(1, n + 1):
        H[(0, j)] = scheme.gap_open + scheme.gap_extend * j
        F[(0, j)] = H[(0, j)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            E[(i, j)] = max(E.get((i - 1, j), neg) + scheme.gap_extend,
                            H[(i - 1, j)] + scheme.gap_open + scheme.gap_extend)
            F[(i, j)] = max(F.get((i, j - 1), neg) + scheme.gap_extend,
                            H[(i, j - 1)] + scheme.gap_open + scheme.gap_extend)
            sub = scheme.match if read[i - 1] == ref[j - 1] else scheme.mismatch
            H[(i, j)] = max(H[(i - 1, j - 1)] + sub, E[(i, j)], F[(i, j)])
    return H, E, F


def oracle_global_score(read, ref, scheme):
    return oracle_global_matrices(read, ref, scheme)[0][(len(read), len(ref))]


class TestKnownCases:
    def test_identical(self):
        a = needleman_wunsch("ACGTACGT", "ACGTACGT")
        assert a.score == 8
        assert str(a.cigar) == "8M"

    def test_full_spans(self):
        a = needleman_wunsch("ACG", "ACGTACG")
        assert a.read_span == 3 and a.ref_span == 7
        a.validate_against(3)

    def test_empty_read(self):
        a = needleman_wunsch("", "ACGT")
        assert str(a.cigar) == "4D"
        assert a.score == BWA_MEM_SCORING.gap_cost(4)

    def test_empty_ref(self):
        a = needleman_wunsch("ACGT", "")
        assert str(a.cigar) == "4I"

    def test_both_empty(self):
        a = needleman_wunsch("", "")
        assert a.score == 0 and a.cigar.ops == ()

    def test_single_substitution(self):
        scheme = ScoringScheme(match=1, mismatch=-1, gap_open=-5,
                               gap_extend=-2)
        a = needleman_wunsch("ACGT", "AGGT", scoring=scheme)
        assert a.score == 3 - 1
        assert str(a.cigar) == "4M"


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs(self, seed):
        rng = random.Random(seed)
        read = random_sequence(rng.randint(1, 40), rng)
        ref = random_sequence(rng.randint(1, 40), rng)
        a = needleman_wunsch(read, ref)
        assert a.score == oracle_global_score(read, ref, BWA_MEM_SCORING)
        a.validate_against(len(read))


@given(dna, dna)
@settings(max_examples=60, deadline=None)
def test_property_score_matches_oracle(read, ref):
    a = needleman_wunsch(read, ref)
    assert a.score == oracle_global_score(read, ref, BWA_MEM_SCORING)


@given(dna, dna)
@settings(max_examples=40, deadline=None)
def test_property_cigar_consumes_everything(read, ref):
    a = needleman_wunsch(read, ref)
    assert a.cigar.query_length == len(read)
    assert a.cigar.reference_length == len(ref)


@given(dna, dna)
@settings(max_examples=30, deadline=None)
def test_property_global_le_local_upper_bound(read, ref):
    from repro.extension.smith_waterman import smith_waterman
    global_score = needleman_wunsch(read, ref).score
    local_score = smith_waterman(read, ref).score
    assert global_score <= local_score  # local may clip penalties away
