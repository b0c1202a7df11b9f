"""Banded alignment tests."""

import random

import pytest

from repro.genome.reads import ErrorModel
from repro.genome.sequence import random_sequence
from repro.extension.banded import banded_global
from repro.extension.needleman_wunsch import needleman_wunsch
from repro.extension.scoring import ScoringScheme


class TestBandedGlobal:
    def test_wide_band_equals_nw(self):
        rng = random.Random(1)
        for _ in range(8):
            read = random_sequence(rng.randint(5, 30), rng)
            ref = random_sequence(rng.randint(5, 30), rng)
            if abs(len(read) - len(ref)) > 40:
                continue
            banded = banded_global(read, ref, band_width=64)
            full = needleman_wunsch(read, ref)
            assert banded.alignment.score == full.score

    def test_identical_sequences_any_band(self):
        text = random_sequence(50, random.Random(2))
        result = banded_global(text, text, band_width=1)
        assert result.alignment.score == 50
        assert not result.touched_band_edge or result.band_width == 1

    def test_narrow_band_can_lose_score(self):
        """The SeedEx speculation trade-off: too-narrow bands miss gaps."""
        scheme = ScoringScheme(match=2, mismatch=-1, gap_open=-1,
                               gap_extend=-1)
        read = "ACGTACGTACGT"
        ref = "ACGT" + "AAAAA" + "ACGTACGT"  # needs a 5-base gap
        narrow = banded_global(read, ref, band_width=5, scoring=scheme)
        wide = banded_global(read, ref, band_width=20, scoring=scheme)
        assert wide.alignment.score >= narrow.alignment.score

    def test_touched_edge_signals_narrow_band(self):
        scheme = ScoringScheme(match=2, mismatch=-1, gap_open=-1,
                               gap_extend=-1)
        read = "ACGTACGTACGT"
        ref = "ACGT" + "AAAAA" + "ACGTACGT"
        narrow = banded_global(read, ref, band_width=5, scoring=scheme)
        assert narrow.touched_band_edge

    def test_cigar_consistency(self):
        rng = random.Random(3)
        read = random_sequence(30, rng)
        ref = random_sequence(32, rng)
        result = banded_global(read, ref, band_width=16)
        result.alignment.validate_against(len(read))

    def test_band_too_narrow_for_length_diff_raises(self):
        with pytest.raises(ValueError):
            banded_global("ACGT", "ACGTACGTACGTACGT", band_width=2)

    def test_invalid_band_raises(self):
        with pytest.raises(ValueError):
            banded_global("ACGT", "ACGT", band_width=0)

    def test_cells_bounded_by_band(self):
        read = random_sequence(60, random.Random(4))
        result = banded_global(read, read, band_width=4)
        assert result.alignment.cells <= 60 * (2 * 4 + 1)


# touched_band_edge of the 50 seeded narrow-band pairs below, recorded
# with the banded module's own traceback before it shared the global one.
PINNED_TOUCHES = "00001100110001011100000010000110000101011010110001"


def test_touched_band_edge_pinned():
    model = ErrorModel(substitution_rate=0.05, insertion_rate=0.03,
                       deletion_rate=0.03)
    touches = []
    for seed in range(50):
        rng = random.Random(seed)
        ref = random_sequence(rng.randint(20, 60), rng)
        read = model.apply(ref, rng)
        band = max(1, abs(len(read) - len(ref)) + rng.randint(0, 3))
        result = banded_global(read, ref, band_width=band)
        touches.append("1" if result.touched_band_edge else "0")
    assert "".join(touches) == PINNED_TOUCHES


class TestVectorisedAgainstScalar:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs(self, seed):
        rng = random.Random(seed)
        m = rng.randint(5, 60)
        n = max(1, m + rng.randint(-6, 6))
        read = random_sequence(m, rng)
        ref = random_sequence(n, rng)
        band = rng.randint(abs(m - n) + 1, abs(m - n) + 20)
        fast = banded_global(read, ref, band_width=band)
        slow = banded_global(read, ref, band_width=band, use_scalar=True)
        assert fast.alignment.score == slow.alignment.score
        assert str(fast.alignment.cigar) == str(slow.alignment.cigar)
        assert fast.alignment.cells == slow.alignment.cells
        assert fast.touched_band_edge == slow.touched_band_edge

    def test_harsh_scheme(self):
        scheme = ScoringScheme(match=2, mismatch=-7, gap_open=-5,
                               gap_extend=-3)
        rng = random.Random(77)
        read = random_sequence(40, rng)
        ref = random_sequence(44, rng)
        fast = banded_global(read, ref, band_width=12, scoring=scheme)
        slow = banded_global(read, ref, band_width=12, scoring=scheme,
                             use_scalar=True)
        assert fast.alignment.score == slow.alignment.score
