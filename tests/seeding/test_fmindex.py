"""Tests for the FM-index against naive string search."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.reference import Chromosome, ReferenceGenome
from repro.genome.sequence import random_sequence
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.fmindex import FMIndex
from repro.seeding.store import IndexStore, write_index_store


def naive_positions(text: str, pattern: str):
    out = []
    start = 0
    while True:
        idx = text.find(pattern, start)
        if idx < 0:
            return out
        out.append(idx)
        start = idx + 1


@pytest.fixture(scope="module")
def text():
    return random_sequence(3000, random.Random(42))


@pytest.fixture(scope="module")
def index(text):
    return FMIndex(text, occ_interval=32)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FMIndex("")

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            FMIndex("ACGT", occ_interval=0)

    def test_rejects_bad_sample(self):
        with pytest.raises(ValueError):
            FMIndex("ACGT", sa_sample=0)

    def test_len(self, index, text):
        assert len(index) == len(text)

    def test_memory_footprint_positive(self, index):
        assert index.memory_footprint_bits() > 0

    def test_sampled_smaller_footprint(self, text):
        full = FMIndex(text, sa_sample=1).memory_footprint_bits()
        sampled = FMIndex(text, sa_sample=8).memory_footprint_bits()
        assert sampled < full


class TestCountAndSearch:
    def test_count_matches_naive(self, index, text):
        rng = random.Random(7)
        for _ in range(40):
            length = rng.randint(1, 12)
            start = rng.randrange(0, len(text) - length)
            pattern = text[start:start + length]
            assert index.count(pattern) == len(naive_positions(text, pattern))

    def test_absent_pattern(self, index, text):
        # 40 random 25-mers are essentially never present by chance alone;
        # verify against naive search either way.
        rng = random.Random(8)
        for _ in range(10):
            pattern = random_sequence(25, rng)
            assert index.count(pattern) == len(naive_positions(text, pattern))

    def test_empty_pattern_matches_everywhere(self, index, text):
        assert index.search("").width == len(text) + 1

    def test_single_bases(self, index, text):
        for base in "ACGT":
            assert index.count(base) == text.count(base)

    def test_occ_row_bounds(self, index):
        with pytest.raises(IndexError):
            index.occ(0, -1)
        with pytest.raises(ValueError):
            index.occ(9, 0)

    def test_occ_all_agrees_with_occ(self, index):
        rng = random.Random(9)
        for _ in range(20):
            row = rng.randint(0, len(index))
            combined = index.occ_all(row)
            for code in range(4):
                assert combined[code] == index.occ(code, row)


@pytest.fixture(scope="module", params=["memory", "store"])
def rank_index(request, tmp_path_factory):
    """The FM-index under an FMD-index over 700 bp, in memory or store-attached."""
    text = random_sequence(700, random.Random(13))
    index = BidirectionalFMIndex(text, occ_interval=16)
    if request.param == "store":
        path = tmp_path_factory.mktemp("rank") / "text.idx"
        write_index_store(path, index, ReferenceGenome([Chromosome("t", text)]))
        index = IndexStore.open(path).fmindex()
    return index.fm


class TestRankAgainstBWT:
    """Every Occ entry point agrees with counting the BWT directly."""

    def test_occ_and_occ_all_every_row(self, rank_index):
        bwt = np.asarray(rank_index.export_arrays()["bwt"])
        for row in range(bwt.size + 1):
            expected = [int(np.count_nonzero(bwt[:row] == code)) for code in range(4)]
            assert [rank_index.occ(code, row) for code in range(4)] == expected
            assert list(rank_index.occ_all(row)) == expected

    def test_occ_pair_every_interval(self, rank_index):
        bwt = np.asarray(rank_index.export_arrays()["bwt"])
        rng = random.Random(14)
        for lo in range(0, bwt.size + 1, 3):
            for end in (lo, lo + 1, lo + rng.randint(2, 40), rng.randint(lo, bwt.size)):
                hi = min(end, bwt.size)
                counts = tuple(int(np.count_nonzero(bwt[lo:hi] == code)) for code in range(4))
                for code in range(4):
                    before = rank_index.stats.occ_accesses
                    assert rank_index.occ_pair(code, lo, hi) == (
                        int(np.count_nonzero(bwt[:lo] == code)),
                        counts,
                    )
                    assert rank_index.stats.occ_accesses == before + 2

    def test_out_of_range_rejected(self, rank_index):
        size = len(rank_index) + 1
        for row in (-1, size + 1):
            with pytest.raises(IndexError):
                rank_index.occ(0, row)
            with pytest.raises(IndexError):
                rank_index.occ_all(row)
        for code in (-1, 4):
            with pytest.raises(ValueError):
                rank_index.occ(code, 0)
            with pytest.raises(ValueError):
                rank_index.occ_pair(code, 0, 1)
        for lo, hi in ((-1, 3), (3, 2), (0, size + 1)):
            with pytest.raises(IndexError):
                rank_index.occ_pair(0, lo, hi)


class TestLocate:
    def test_positions_match_naive(self, index, text):
        rng = random.Random(11)
        for _ in range(25):
            length = rng.randint(4, 15)
            start = rng.randrange(0, len(text) - length)
            pattern = text[start:start + length]
            got = index.locate(index.search(pattern))
            assert got == naive_positions(text, pattern)

    def test_max_hits_cap(self, index, text):
        interval = index.search("A")
        got = index.locate(interval, max_hits=5)
        assert len(got) == 5

    def test_sampled_sa_equivalent(self, text):
        full = FMIndex(text, sa_sample=1)
        sampled = FMIndex(text, sa_sample=8)
        rng = random.Random(12)
        for _ in range(15):
            length = rng.randint(4, 12)
            start = rng.randrange(0, len(text) - length)
            pattern = text[start:start + length]
            assert full.locate(full.search(pattern)) == \
                sampled.locate(sampled.search(pattern))


class TestLongestSuffixMatch:
    def test_full_match(self, index, text):
        pattern = text[100:140]
        length, interval = index.longest_suffix_match(pattern)
        assert length == 40
        assert not interval.empty

    def test_partial_match(self, index, text):
        # Prepend junk that (with overwhelming probability) breaks the match
        # at some suffix; verify via naive search.
        pattern = "ACGT" * 10 + text[200:220]
        length, _ = index.longest_suffix_match(pattern)
        assert length >= 20
        assert naive_positions(text, pattern[len(pattern) - length:])
        if length < len(pattern):
            longer = pattern[len(pattern) - length - 1:]
            assert not naive_positions(text, longer)

    def test_no_match_possible(self):
        index = FMIndex("AAAA")
        length, interval = index.longest_suffix_match("CCCC")
        assert length == 0
        assert interval.width == 5  # full interval


class TestAccessMetering:
    def test_search_counts_accesses(self, text):
        index = FMIndex(text, occ_interval=32)
        index.stats.reset()
        index.count("ACGTACGT")
        # Two occ per backward-extend step, up to 8 steps.
        assert 2 <= index.stats.occ_accesses <= 16

    def test_locate_counts_sa_accesses(self, text):
        index = FMIndex(text, occ_interval=32)
        index.stats.reset()
        positions = index.locate(index.search(text[50:62]))
        assert index.stats.sa_accesses == len(positions)

    def test_reset(self, index):
        index.count("ACG")
        index.stats.reset()
        assert index.stats.total == 0


@given(st.text(alphabet="ACGT", min_size=2, max_size=60),
       st.text(alphabet="ACGT", min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_count_equals_naive(text, pattern):
    index = FMIndex(text, occ_interval=4)
    assert index.count(pattern) == len(naive_positions(text, pattern))


@given(st.text(alphabet="ACGT", min_size=2, max_size=60),
       st.text(alphabet="ACGT", min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_property_locate_equals_naive(text, pattern):
    index = FMIndex(text, occ_interval=4)
    assert index.locate(index.search(pattern)) == naive_positions(text, pattern)
