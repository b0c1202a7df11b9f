"""Affine-gap Needleman-Wunsch global alignment.

The global counterpart of the local aligner, used by the GACT-style tiling
path for long reads (Darwin extends tile by tile with global alignment
inside each tile) and as a reference point in tests.
"""

from __future__ import annotations

import numpy as np

from repro.genome import sequence as seq
from repro.extension.alignment import Alignment, Cigar
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import NEG, DPMatrices


def fill_matrices_global(read_codes: np.ndarray, ref_codes: np.ndarray,
                         scoring: ScoringScheme) -> DPMatrices:
    """Vectorised affine global fill (no zero floor, gap-initialised rims)."""
    m, n = read_codes.size, ref_codes.size
    sub = scoring.substitution_matrix()
    open_ext = scoring.gap_open + scoring.gap_extend
    ext = scoring.gap_extend

    h = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    e = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    f = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    h[0, 0] = 0
    if n:
        rim = scoring.gap_open + ext * np.arange(1, n + 1, dtype=np.int64)
        h[0, 1:] = rim
        f[0, 1:] = rim
    col_rim = scoring.gap_open + ext * np.arange(1, m + 1, dtype=np.int64)
    h[1:, 0] = col_rim
    e[1:, 0] = col_rim

    cols = np.arange(1, n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        sub_row = sub[read_codes[i - 1], ref_codes]
        e[i, 1:] = np.maximum(e[i - 1, 1:] + ext, h[i - 1, 1:] + open_ext)
        h_no_f = np.maximum(h[i - 1, :-1] + sub_row, e[i, 1:])
        # Prefix-max F including the k = 0 rim cell.
        prefix = np.empty(n, dtype=np.int64)
        prefix[0] = h[i, 0] + scoring.gap_open
        if n > 1:
            prefix[1:] = h_no_f[:-1] + scoring.gap_open - ext * cols[:-1]
        running = np.maximum.accumulate(prefix)
        f[i, 1:] = running + ext * cols
        h[i, 1:] = np.maximum(h_no_f, f[i, 1:])
    return DPMatrices(h, e, f)


def traceback_global(matrices: DPMatrices, read_codes: np.ndarray,
                     ref_codes: np.ndarray,
                     scoring: ScoringScheme) -> Cigar:
    """Walk from (m, n) to (0, 0)."""
    h, e, f = matrices.h, matrices.e, matrices.f
    ext = scoring.gap_extend
    open_ext = scoring.gap_open + scoring.gap_extend
    i, j = read_codes.size, ref_codes.size
    ops = []
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            if i == 0:
                state = "F"
            elif j == 0:
                state = "E"
            else:
                diag = h[i - 1, j - 1] + scoring.substitution(
                    int(read_codes[i - 1]), int(ref_codes[j - 1]))
                if h[i, j] == diag:
                    ops.append("M")
                    i -= 1
                    j -= 1
                elif h[i, j] == e[i, j]:
                    state = "E"
                elif h[i, j] == f[i, j]:
                    state = "F"
                else:  # pragma: no cover
                    raise AssertionError("global traceback stuck")
        elif state == "E":
            ops.append("I")
            from_h = h[i - 1, j] + open_ext == e[i, j]
            i -= 1
            if from_h or i == 0:
                state = "H"
        else:
            ops.append("D")
            from_h = h[i, j - 1] + open_ext == f[i, j]
            j -= 1
            if from_h or j == 0:
                state = "H"
    return Cigar.from_ops(reversed(ops))


def needleman_wunsch(read, reference,
                     scoring: ScoringScheme = BWA_MEM_SCORING) -> Alignment:
    """Optimal global alignment of the full read against the full reference."""
    read_codes = seq.as_codes(read)
    ref_codes = seq.as_codes(reference)
    if read_codes.size == 0 and ref_codes.size == 0:
        return Alignment(score=0, cigar=Cigar(()), read_start=0, read_end=0,
                         ref_start=0, ref_end=0)
    if read_codes.size == 0:
        cigar = Cigar(((ref_codes.size, "D"),))
        return Alignment(score=scoring.gap_cost(ref_codes.size), cigar=cigar,
                         read_start=0, read_end=0, ref_start=0,
                         ref_end=ref_codes.size)
    if ref_codes.size == 0:
        cigar = Cigar(((read_codes.size, "I"),))
        return Alignment(score=scoring.gap_cost(read_codes.size), cigar=cigar,
                         read_start=0, read_end=read_codes.size, ref_start=0,
                         ref_end=0)
    matrices = fill_matrices_global(read_codes, ref_codes, scoring)
    cigar = traceback_global(matrices, read_codes, ref_codes, scoring)
    return Alignment(score=int(matrices.h[-1, -1]), cigar=cigar,
                     read_start=0, read_end=read_codes.size,
                     ref_start=0, ref_end=ref_codes.size,
                     cells=matrices.cells)
