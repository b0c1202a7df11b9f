"""Banded affine Smith-Waterman (SeedEx-style).

Sec. IV-C discusses SeedEx: "there still has a trade-off between the
execution band size and performance for the banded Smith-Waterman
algorithm" — a narrow band is fast but may miss the optimal path
(speculation-and-test). This module implements the banded global aligner
and reports whether the optimal in-band path touched the band edge, the
signal SeedEx's verifier uses to decide a respeculation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genome import sequence as seq
from repro.extension.alignment import Alignment, Cigar
from repro.extension.needleman_wunsch import traceback_global
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import NEG, DPMatrices


@dataclass(frozen=True)
class BandedResult:
    """A banded alignment plus the band-adequacy signal.

    ``touched_band_edge`` True means the traced path ran along the band
    boundary, i.e. a wider band might score higher (SeedEx's "test" step).
    """

    alignment: Alignment
    band_width: int
    touched_band_edge: bool


def banded_global(read, reference, band_width: int = 16,
                  scoring: ScoringScheme = BWA_MEM_SCORING,
                  use_scalar: bool = False) -> BandedResult:
    """Global affine alignment restricted to ``|j - i| <= band_width``.

    Cells outside the band are -inf; with ``band_width >= max(m, n)`` the
    result equals unbanded Needleman-Wunsch. The default fill vectorises
    each band row (lazy-F prefix max); ``use_scalar`` selects the plain
    double loop, kept as the property-testing oracle.
    """
    if band_width <= 0:
        raise ValueError(f"band_width must be positive, got {band_width}")
    read_codes = seq.as_codes(read)
    ref_codes = seq.as_codes(reference)
    m, n = read_codes.size, ref_codes.size
    if abs(m - n) > band_width:
        raise ValueError(
            f"length difference {abs(m - n)} exceeds band width {band_width}; "
            "the global path cannot stay in band")

    fill = _fill_scalar if use_scalar else _fill_vectorised
    h, e, f, cells = fill(read_codes, ref_codes, band_width, scoring)

    if h[m, n] <= NEG // 2:
        raise ValueError("no in-band global path exists")

    cigar = traceback_global(DPMatrices(h, e, f), read_codes, ref_codes,
                             scoring)
    alignment = Alignment(score=int(h[m, n]), cigar=cigar,
                          read_start=0, read_end=m, ref_start=0, ref_end=n,
                          cells=cells)
    return BandedResult(alignment=alignment, band_width=band_width,
                        touched_band_edge=_touches_band_edge(cigar,
                                                             band_width))


def _init_matrices(m, n, band_width, scoring):
    ext = scoring.gap_extend
    h = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    e = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    f = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    h[0, 0] = 0
    for j in range(1, min(n, band_width) + 1):
        h[0, j] = f[0, j] = scoring.gap_open + ext * j
    for i in range(1, min(m, band_width) + 1):
        h[i, 0] = e[i, 0] = scoring.gap_open + ext * i
    return h, e, f


def _fill_scalar(read_codes, ref_codes, band_width, scoring):
    """Reference implementation: plain in-band double loop."""
    m, n = read_codes.size, ref_codes.size
    open_ext = scoring.gap_open + scoring.gap_extend
    ext = scoring.gap_extend
    h, e, f = _init_matrices(m, n, band_width, scoring)
    cells = 0
    for i in range(1, m + 1):
        lo = max(1, i - band_width)
        hi = min(n, i + band_width)
        for j in range(lo, hi + 1):
            e[i, j] = max(e[i - 1, j] + ext, h[i - 1, j] + open_ext)
            f[i, j] = max(f[i, j - 1] + ext, h[i, j - 1] + open_ext)
            diag = h[i - 1, j - 1] + scoring.substitution(
                int(read_codes[i - 1]), int(ref_codes[j - 1]))
            h[i, j] = max(diag, e[i, j], f[i, j])
            cells += 1
    return h, e, f, cells


def _fill_vectorised(read_codes, ref_codes, band_width, scoring):
    """Row-vectorised band fill (lazy-F prefix max within the band)."""
    m, n = read_codes.size, ref_codes.size
    open_ext = scoring.gap_open + scoring.gap_extend
    ext = scoring.gap_extend
    sub = scoring.substitution_matrix()
    h, e, f = _init_matrices(m, n, band_width, scoring)
    cells = 0
    for i in range(1, m + 1):
        lo = max(1, i - band_width)
        hi = min(n, i + band_width)
        if lo > hi:
            continue
        cols = np.arange(lo, hi + 1, dtype=np.int64)
        cells += cols.size
        e[i, lo:hi + 1] = np.maximum(e[i - 1, lo:hi + 1] + ext,
                                     h[i - 1, lo:hi + 1] + open_ext)
        sub_row = sub[read_codes[i - 1], ref_codes[lo - 1:hi]]
        h_no_f = np.maximum(h[i - 1, lo - 1:hi] + sub_row,
                            e[i, lo:hi + 1])
        # Lazy F over the in-band prefix; the seed element carries the
        # k = lo-1 cell (the column-0 rim when lo == 1, else out-of-band).
        transformed = np.empty(cols.size, dtype=np.int64)
        transformed[0] = h[i, lo - 1] + scoring.gap_open - ext * (lo - 1)
        if cols.size > 1:
            transformed[1:] = h_no_f[:-1] + scoring.gap_open \
                - ext * cols[:-1]
        running = np.maximum.accumulate(transformed)
        f[i, lo:hi + 1] = running + ext * cols
        h[i, lo:hi + 1] = np.maximum(h_no_f, f[i, lo:hi + 1])
    return h, e, f, cells


def _touches_band_edge(cigar: Cigar, band_width: int) -> bool:
    """Whether the path visits a cell with ``|j - i| == band_width``.

    Matches keep the diagonal offset ``j - i``; each gap run moves it
    monotonically, so checking the offset after every op covers every
    cell the path visits.
    """
    offset = 0
    for length, op in cigar.ops:
        if op == "I":
            offset -= length
        elif op == "D":
            offset += length
        if abs(offset) == band_width:
            return True
    return False
