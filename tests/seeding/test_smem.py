"""SMEM finding validated against a brute-force two-strand oracle.

The FMD-index is built over ``T + revcomp(T)``, so a match may occur on
either strand of the reference, and super-maximality and occurrence
counts are over both. Every oracle case runs against an in-memory index
and a store-attached (memory-mapped) one.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.reference import Chromosome, ReferenceGenome
from repro.genome.sequence import random_sequence, reverse_complement
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.smem import find_smems, smems_covering
from repro.seeding.store import IndexStore, write_index_store


def oracle_smems(text: str, read: str, min_length: int = 1):
    """Brute force: longest match from every start, then drop contained.

    A match is a substring of ``text + revcomp(text)``: the reference on
    either strand (or across the junction between the two, which the
    index counts but never locates).
    """
    both = text + reverse_complement(text)
    matches = []
    for start in range(len(read)):
        length = 0
        while start + length < len(read) \
                and read[start:start + length + 1] in both:
            length += 1
        if length >= min_length:
            matches.append((start, start + length))
    out = []
    for m in matches:
        contained = any(o != m and o[0] <= m[0] and o[1] >= m[1]
                        for o in matches)
        if not contained and m not in out:
            out.append(m)
    return sorted(out)


def _attached(index, text, tmp):
    """``index`` written to a store under ``tmp`` and memory-mapped back."""
    path = os.path.join(tmp, "text.idx")
    write_index_store(path, index, ReferenceGenome([Chromosome("t", text)]))
    return IndexStore.open(path).fmindex()


def run_find(text, read, min_length=1):
    """SMEM spans from an in-memory index, checked equal on the store."""
    index = BidirectionalFMIndex(text, occ_interval=8)
    smems = find_smems(index, read, min_length=min_length)
    with tempfile.TemporaryDirectory() as tmp:
        assert find_smems(_attached(index, text, tmp), read, min_length=min_length) == smems
    return sorted((m.read_start, m.read_end) for m in smems)


class TestAgainstOracle:
    def test_exact_substring_read(self):
        text = random_sequence(500, random.Random(1))
        read = text[100:160]
        assert run_find(text, read) == oracle_smems(text, read)

    def test_read_with_mismatches(self):
        rng = random.Random(2)
        text = random_sequence(500, rng)
        read = list(text[50:150])
        for pos in (20, 55, 80):
            read[pos] = {"A": "C", "C": "G", "G": "T", "T": "A"}[read[pos]]
        read = "".join(read)
        assert run_find(text, read) == oracle_smems(text, read)

    def test_random_read(self):
        rng = random.Random(3)
        text = random_sequence(400, rng)
        read = random_sequence(60, rng)
        assert run_find(text, read) == oracle_smems(text, read)

    def test_repetitive_text(self):
        text = "ACG" * 100 + random_sequence(200, random.Random(4))
        read = "ACG" * 10 + "TTT"
        assert run_find(text, read) == oracle_smems(text, read)

    def test_min_length_filter(self):
        text = random_sequence(500, random.Random(5))
        read = text[10:90]
        filtered = run_find(text, read, min_length=30)
        oracle = [m for m in oracle_smems(text, read) if m[1] - m[0] >= 30]
        assert filtered == oracle

    @pytest.mark.parametrize("seed", range(8))
    def test_many_random_cases(self, seed):
        rng = random.Random(100 + seed)
        text = random_sequence(rng.randint(50, 300), rng)
        read = random_sequence(rng.randint(5, 80), rng)
        assert run_find(text, read) == oracle_smems(text, read)


class TestSmemProperties:
    def test_occurrence_counts_correct(self):
        rng = random.Random(6)
        text = random_sequence(400, rng)
        read = text[30:80]
        index = BidirectionalFMIndex(text, occ_interval=8)
        for smem in find_smems(index, read):
            sub = read[smem.read_start:smem.read_end]
            assert smem.occurrences == _count(text + reverse_complement(text), sub)

    def test_positions_locatable(self):
        rng = random.Random(7)
        text = random_sequence(400, rng)
        read = text[200:260] + reverse_complement(text[20:60])
        index = BidirectionalFMIndex(text, occ_interval=8)
        strands = set()
        for smem in find_smems(index, read):
            sub = read[smem.read_start:smem.read_end]
            for pos, reverse in index.locate(smem.interval, smem.length):
                strands.add(reverse)
                expected = reverse_complement(sub) if reverse else sub
                assert text[pos:pos + smem.length] == expected
        assert strands == {False, True}

    def test_max_occurrences_filter(self):
        text = "AT" * 200
        index = BidirectionalFMIndex(text, occ_interval=8)
        assert find_smems(index, "ATATAT", max_occurrences=2) == []

    def test_pivot_bounds(self):
        index = BidirectionalFMIndex("ACGTACGT", occ_interval=4)
        from repro.genome.sequence import encode
        with pytest.raises(IndexError):
            smems_covering(index, encode("ACG"), 5)

    def test_smems_cover_pivot(self):
        text = random_sequence(300, random.Random(8))
        read = text[40:100]
        index = BidirectionalFMIndex(text, occ_interval=8)
        from repro.genome.sequence import encode
        smems, nxt = smems_covering(index, encode(read), 10)
        for smem in smems:
            assert smem.read_start <= 10 < smem.read_end
        assert nxt > 10


class TestTwoStrandSemantics:
    """Where one pass over both strands differs from one pass per strand."""

    def test_max_occurrences_counts_both_strands(self):
        rng = random.Random(11)
        motif = random_sequence(30, rng)
        flank = [random_sequence(80, rng) for _ in range(4)]
        # two forward copies and one reverse-complement copy of the motif
        text = (flank[0] + motif + flank[1] + motif + flank[2]
                + reverse_complement(motif) + flank[3])
        index = BidirectionalFMIndex(text, occ_interval=8)
        (smem,) = find_smems(index, motif, min_length=20)
        assert (smem.read_start, smem.read_end, smem.occurrences) == (0, 30, 3)
        assert find_smems(index, motif, min_length=20, max_occurrences=2) == []
        assert find_smems(index, motif, min_length=20, max_occurrences=3) == [smem]
        located = index.locate(smem.interval, smem.length)
        assert [reverse for _, reverse in located] == [False, False, True]

    def test_super_maximality_is_over_both_strands(self):
        rng = random.Random(12)
        read = random_sequence(60, rng)
        flank = [random_sequence(100, rng) for _ in range(3)]
        # read[0:20] occurs forward; read[0:30], containing it, only on the
        # reverse strand, so read[0:20] is not super-maximal. The base
        # before the reverse copy is not revcomp(read[30]), so the reverse
        # match ends at 30.
        stop = "ACGT"[("ACGT".index(reverse_complement(read[30])) + 1) % 4]
        text = (flank[0] + read[:20] + flank[1] + stop
                + reverse_complement(read[:30]) + flank[2])
        index = BidirectionalFMIndex(text, occ_interval=8)
        smems = find_smems(index, read, min_length=15)
        assert [(m.read_start, m.read_end) for m in smems] == [(0, 30)]
        rc_start = len(flank[0]) + 20 + len(flank[1]) + 1
        assert index.locate(smems[0].interval, 30) == [(rc_start, True)]

    def test_junction_matches_are_never_located(self):
        text = random_sequence(200, random.Random(13))
        tail = text[-15:]
        # tail + revcomp(tail) occurs only across the T | revcomp(T) junction
        read = tail + reverse_complement(tail)
        assert read not in text and reverse_complement(read) not in text
        index = BidirectionalFMIndex(text, occ_interval=8)
        (smem,) = find_smems(index, read, min_length=20)
        assert (smem.read_start, smem.read_end, smem.occurrences) == (0, 30, 1)
        assert index.locate(smem.interval, smem.length) == []


def _count(text, pattern):
    count, start = 0, 0
    while True:
        idx = text.find(pattern, start)
        if idx < 0:
            return count
        count += 1
        start = idx + 1


@pytest.mark.parametrize("occ_interval", [1, 8, 128])
@pytest.mark.parametrize("kind", ["memory", "store"])
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_property_matches_oracle(kind, occ_interval, seed):
    rng = random.Random(seed)
    # Twelve checkpoint blocks of text: single-base intervals then span
    # about three blocks, so the rank kernel's cross-block path runs too.
    text = random_sequence(rng.randint(20, 150) + 12 * occ_interval, rng)
    if rng.random() < 0.5:
        read = random_sequence(rng.randint(3, 50), rng)
    else:
        length = rng.randint(3, min(50, len(text)))
        start = rng.randrange(0, len(text) - length + 1)
        read = list(text[start:start + length])
        read[rng.randrange(len(read))] = rng.choice("ACGT")
        read = "".join(read)
    if rng.random() < 0.5:
        read = reverse_complement(read)
    index = BidirectionalFMIndex(text, occ_interval=occ_interval)
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "store":
            index = _attached(index, text, tmp)
        smems = find_smems(index, read, min_length=1)
        got = sorted((m.read_start, m.read_end) for m in smems)
    assert got == oracle_smems(text, read)
