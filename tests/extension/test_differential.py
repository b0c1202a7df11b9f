"""Differential harness: every DP aligner referees the others.

Each property draws DNA pairs over ACGT and checks one aligner against an
independent one (or a plain DP written here), under both the BWA-MEM
defaults and a harsh scheme whose penalties dwarf a match:

- vectorised ``smith_waterman`` vs its scalar oracle, whole ``Alignment``;
- each pair alone vs inside a mixed-shape ``smith_waterman_batch`` call;
- ``needleman_wunsch`` vs the scalar global fill, score and CIGAR;
- local score >= global score;
- ``edit_distance`` and Myers' semi-global distances vs plain Levenshtein.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extension.bitap import (
    best_semi_global_distance,
    edit_distance,
    myers_distances,
)
from repro.extension.needleman_wunsch import (
    needleman_wunsch,
    traceback_global,
)
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import (
    fill_matrices_scalar,
    smith_waterman,
)
from repro.genome.sequence import as_codes
from repro.runtime.batch import smith_waterman_batch

HARSH_SCORING = ScoringScheme(match=2, mismatch=-7, gap_open=-5,
                              gap_extend=-3)

dna = st.text(alphabet="ACGT", min_size=1, max_size=30)
schemes = st.sampled_from([BWA_MEM_SCORING, HARSH_SCORING])


def fixed_length_dna(length):
    return st.text(alphabet="ACGT", min_size=length, max_size=length)


# Lengths drawn from a small set so a batch repeats some shapes (shared
# kernel calls) and leaves others alone.
shaped_pair = st.tuples(st.sampled_from([4, 9, 17]),
                        st.sampled_from([6, 9, 23])).flatmap(
    lambda shape: st.tuples(fixed_length_dna(shape[0]),
                            fixed_length_dna(shape[1])))


def levenshtein(a, b, free_start=False):
    """Plain edit-distance DP; ``free_start`` lets ``a`` start anywhere
    in ``b`` and end anywhere (best match of ``a`` inside ``b``)."""
    prev = [0] * (len(b) + 1) if free_start else list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return min(prev) if free_start else prev[-1]


@given(dna, dna, schemes)
@settings(max_examples=80, deadline=None)
def test_vectorised_local_equals_scalar_oracle(read, ref, scheme):
    fast = smith_waterman(read, ref, scoring=scheme)
    slow = smith_waterman(read, ref, scoring=scheme, use_scalar=True)
    assert fast == slow


@given(st.lists(shaped_pair, min_size=1, max_size=10), schemes)
@settings(max_examples=40, deadline=None)
def test_batch_member_equals_alone(pairs, scheme):
    batched = smith_waterman_batch(pairs, scoring=scheme)
    for pair, got in zip(pairs, batched):
        assert got == smith_waterman(*pair, scoring=scheme)
        assert got == smith_waterman_batch([pair], scoring=scheme)[0]


@given(dna, dna, schemes)
@settings(max_examples=60, deadline=None)
def test_global_equals_scalar_global_fill(read, ref, scheme):
    full = needleman_wunsch(read, ref, scoring=scheme)
    read_codes, ref_codes = as_codes(read), as_codes(ref)
    oracle = fill_matrices_scalar(read_codes, ref_codes, scheme, local=False)
    assert full.score == oracle.h[-1, -1]
    assert full.cigar == traceback_global(oracle, read_codes, ref_codes,
                                          scheme)


@given(dna, dna, schemes)
@settings(max_examples=60, deadline=None)
def test_local_score_at_least_global(read, ref, scheme):
    local = smith_waterman(read, ref, scoring=scheme).score
    assert local >= needleman_wunsch(read, ref, scoring=scheme).score


@given(dna, dna)
@settings(max_examples=80, deadline=None)
def test_edit_distances_equal_levenshtein(pattern, text):
    assert edit_distance(pattern, text) == levenshtein(pattern, text)
    best = levenshtein(pattern, text, free_start=True)
    assert min(myers_distances(pattern, text)) == best
    assert best_semi_global_distance(pattern, text) == best
