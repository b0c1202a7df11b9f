"""Tests for suffix array and BWT construction."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import encode, random_sequence
from repro.seeding.bwt import (
    SENTINEL,
    bwt,
    bwt_from_suffix_array,
    extended_suffix_array,
    inverse_bwt,
    suffix_array,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=120)


def naive_suffix_array(text: str):
    return sorted(range(len(text)), key=lambda i: text[i:])


class TestSuffixArray:
    def test_known_banana_like(self):
        # "ACGACG": suffixes sorted manually.
        text = "ACGACG"
        assert suffix_array(encode(text)).tolist() == naive_suffix_array(text)

    def test_empty(self):
        assert suffix_array(np.empty(0, dtype=np.uint8)).size == 0

    def test_single(self):
        assert suffix_array(encode("T")).tolist() == [0]

    def test_repetitive(self):
        text = "AAAAAA"
        assert suffix_array(encode(text)).tolist() == [5, 4, 3, 2, 1, 0]

    def test_rejects_symbols_past_int64_sort_keys(self):
        with pytest.raises(ValueError, match="int64"):
            suffix_array(np.array([0, 2**40], dtype=np.int64))

    @given(dna)
    @settings(max_examples=60)
    def test_matches_naive(self, text):
        assert suffix_array(encode(text)).tolist() == naive_suffix_array(text)

    def test_large_random_is_permutation_and_sorted(self):
        text = random_sequence(5000, random.Random(1))
        sa = suffix_array(encode(text))
        assert sorted(sa.tolist()) == list(range(5000))
        for a, b in zip(sa[:200], sa[1:201]):
            assert text[a:] < text[b:]


class TestExtendedSuffixArray:
    def test_sentinel_row_first(self):
        sa = extended_suffix_array(encode("GATTACA"))
        assert sa[0] == 7
        assert sorted(sa.tolist()) == list(range(8))

    @given(dna)
    @settings(max_examples=30)
    def test_consistent_with_plain(self, text):
        plain = suffix_array(encode(text))
        ext = extended_suffix_array(encode(text))
        assert ext[1:].tolist() == plain.tolist()


class TestBWT:
    def test_known_value(self):
        # T = "ACGT": rotations of ACGT$ sorted: $ACGT, ACGT$, CGT$A, GT$AC,
        # T$ACG -> last column T, $, A, C, G  (with $ = SENTINEL).
        codes, _ = bwt(encode("ACGT"))
        assert codes.tolist() == [3, SENTINEL, 0, 1, 2]

    def test_single_sentinel(self):
        codes, _ = bwt(encode(random_sequence(200, random.Random(2))))
        assert int(np.count_nonzero(codes == SENTINEL)) == 1

    def test_length(self):
        codes, sa = bwt(encode("ACGTACGT"))
        assert codes.size == 9 and sa.size == 9

    def test_mismatched_sa_raises(self):
        with pytest.raises(ValueError):
            bwt_from_suffix_array(encode("ACGT"), np.arange(3))

    @given(dna)
    @settings(max_examples=60)
    def test_inverse_roundtrip(self, text):
        codes, _ = bwt(encode(text))
        assert inverse_bwt(codes).tolist() == encode(text).tolist()

    def test_inverse_rejects_multiple_sentinels(self):
        with pytest.raises(ValueError):
            inverse_bwt(np.array([SENTINEL, SENTINEL, 0], dtype=np.uint8))

    def test_inverse_empty(self):
        assert inverse_bwt(np.empty(0, dtype=np.uint8)).size == 0
