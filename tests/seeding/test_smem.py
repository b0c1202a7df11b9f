"""SMEM finding validated against a brute-force oracle."""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.reference import Chromosome, ReferenceGenome
from repro.genome.sequence import random_sequence
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.smem import find_smems, smems_covering
from repro.seeding.store import IndexStore, write_index_store


def oracle_smems(text: str, read: str, min_length: int = 1):
    """Brute force: longest match from every start, then drop contained."""
    matches = []
    for start in range(len(read)):
        length = 0
        while start + length < len(read) \
                and read[start:start + length + 1] in text:
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


def run_find(text, read, min_length=1):
    index = BidirectionalFMIndex(text, occ_interval=8)
    smems = find_smems(index, read, min_length=min_length)
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
            assert smem.occurrences == _count(text, sub)

    def test_positions_locatable(self):
        rng = random.Random(7)
        text = random_sequence(400, rng)
        read = text[200:260]
        index = BidirectionalFMIndex(text, occ_interval=8)
        for smem in find_smems(index, read):
            sub = read[smem.read_start:smem.read_end]
            for pos in index.locate(smem.interval):
                assert text[pos:pos + smem.length] == sub

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
    index = BidirectionalFMIndex(text, occ_interval=occ_interval)
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "store":
            path = os.path.join(tmp, "text.idx")
            write_index_store(path, index, ReferenceGenome([Chromosome("t", text)]))
            index = IndexStore.open(path).fmindex()
        smems = find_smems(index, read, min_length=1)
        got = sorted((m.read_start, m.read_end) for m in smems)
    assert got == oracle_smems(text, read)
