"""Tests for the FMD-index: one FM-index over T + revcomp(T).

Every naive count below is taken over both strands, i.e. over the
concatenation ``T + revcomp(T)`` the index is built on.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import encode, random_sequence, reverse_complement
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.smem import find_smems


def naive_positions(text, pattern):
    out, start = [], 0
    while True:
        idx = text.find(pattern, start)
        if idx < 0:
            return out
        out.append(idx)
        start = idx + 1


def both_strands(text):
    """The FMD text: ``text`` followed by its reverse complement."""
    return text + reverse_complement(text)


def naive_locate(text, pattern):
    """Two-strand occurrences in ``text`` as ``(position, reverse)``."""
    forward = [(pos, False) for pos in naive_positions(text, pattern)]
    reverse = [(pos, True) for pos in naive_positions(text, reverse_complement(pattern))]
    return sorted(forward + reverse)


@pytest.fixture(scope="module")
def text():
    return random_sequence(2000, random.Random(5))


@pytest.fixture(scope="module")
def index(text):
    return BidirectionalFMIndex(text, occ_interval=32)


class TestIntervals:
    def test_full_interval_width(self, index, text):
        assert index.full_interval().s == 2 * len(text) + 1

    def test_base_interval_counts(self, index, text):
        for code, base in enumerate("ACGT"):
            assert index.base_interval(code).s == both_strands(text).count(base)

    def test_search_matches_naive(self, index, text):
        rng = random.Random(6)
        for _ in range(30):
            length = rng.randint(1, 14)
            start = rng.randrange(0, len(text) - length)
            pattern = text[start:start + length]
            assert index.search(pattern).s == len(naive_positions(both_strands(text), pattern))

    def test_partner_start_is_the_reverse_complement_interval(self, index, text):
        rng = random.Random(10)
        for _ in range(30):
            length = rng.randint(1, 14)
            start = rng.randrange(0, len(text) - length)
            pattern = text[start:start + length]
            bi, partner = index.search(pattern), index.search(reverse_complement(pattern))
            assert (bi.l, bi.s) == (partner.k, partner.s)

    def test_locate_matches_naive(self, index, text):
        rng = random.Random(7)
        for _ in range(20):
            length = rng.randint(4, 14)
            start = rng.randrange(0, len(text) - length)
            pattern = text[start:start + length]
            bi = index.search(pattern)
            assert index.locate(bi, length) == naive_locate(text, pattern)


class TestExtensionSymmetry:
    def test_forward_equals_backward_build(self, index, text):
        """Building a pattern by forward extension must yield the same
        interval width as the standard backward build."""
        rng = random.Random(8)
        for _ in range(20):
            length = rng.randint(2, 12)
            start = rng.randrange(0, len(text) - length)
            pattern = text[start:start + length]
            backward = index.search(pattern)
            bi = index.full_interval()
            for base in encode(pattern):
                bi = index.extend_forward(bi, int(base))
            assert bi.s == backward.s
            assert bi.k == backward.k

    def test_mixed_direction_extension(self, index, text):
        """Extend outward from a middle anchor in both directions."""
        rng = random.Random(9)
        for _ in range(20):
            start = rng.randrange(10, len(text) - 20)
            left, mid, right = start, start + 5, start + 10
            codes = encode(text[left:right])
            bi = index.full_interval()
            # Build middle base, then alternate left/right extensions.
            bi = index.extend_backward(bi, int(codes[4]))
            for offset in range(1, 5):
                bi = index.extend_backward(bi, int(codes[4 - offset]))
                bi = index.extend_forward(bi, int(codes[4 + offset]))
            expected = index.search(text[left:left + 9])
            assert bi.s == expected.s

    def test_empty_on_absent_pattern(self, index, text):
        pattern = "ACGT" * 8
        bi = index.search(pattern)
        assert bi.s == len(naive_positions(both_strands(text), pattern))
        assert bi.empty


class TestAccessAccounting:
    def test_extension_counts_block_fetches(self, text):
        index = BidirectionalFMIndex(text, occ_interval=32)
        index.reset_stats()
        pattern = text[100:106]
        index.search(pattern)
        # every base occurs, so all six extensions run: 2 fetches each
        assert index.occ_accesses == 2 * len(pattern)
        index.reset_stats()
        assert index.occ_accesses == 0

    def test_forward_extension_counts_block_fetches(self, text):
        index = BidirectionalFMIndex(text, occ_interval=32)
        bi = index.full_interval()
        index.reset_stats()
        for steps, base in enumerate(text[200:210], start=1):
            bi = index.extend_forward(bi, "ACGT".index(base))
            assert index.occ_accesses == 2 * steps
        assert bi.s >= 1


class TestPickle:
    def test_clone_of_a_queried_index_answers_identically(self, text):
        index = BidirectionalFMIndex(text, occ_interval=32, sa_sample=4)
        rng = random.Random(6)
        reads = [text[start:start + 60] for start in (10, 700, 1500)]
        reads.append(random_sequence(60, rng))
        find_smems(index, reads[0], min_length=10)
        clone = pickle.loads(pickle.dumps(index))
        for read in reads:
            index.reset_stats()
            clone.reset_stats()
            expected = find_smems(index, read, min_length=10)
            assert find_smems(clone, read, min_length=10) == expected
            assert clone.occ_accesses == index.occ_accesses
            for smem in expected:
                assert (clone.locate(smem.interval, smem.length)
                        == index.locate(smem.interval, smem.length))
            assert clone.fm.stats == index.fm.stats


@given(st.text(alphabet="ACGT", min_size=2, max_size=50),
       st.text(alphabet="ACGT", min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_property_bidirectional_count(text, pattern):
    index = BidirectionalFMIndex(text, occ_interval=4)
    bi = index.search(pattern)
    assert bi.s == len(naive_positions(both_strands(text), pattern))
    if not bi.empty:
        assert index.locate(bi, len(pattern)) == naive_locate(text, pattern)


@given(st.text(alphabet="ACGT", min_size=2, max_size=40))
@settings(max_examples=30, deadline=None)
def test_property_forward_build_equals_backward(text):
    index = BidirectionalFMIndex(text, occ_interval=4)
    pattern = text[: min(6, len(text))]
    backward = index.search(pattern)
    bi = index.full_interval()
    for base in encode(pattern):
        bi = index.extend_forward(bi, int(base))
    assert (bi.k, bi.s) == (backward.k, backward.s)
