"""Affine-gap Needleman-Wunsch global alignment and seed extension.

:func:`needleman_wunsch` is the global counterpart of the local aligner.
Tests check it, and with it the global edges that :func:`extend` fills,
against the scalar oracle fill.

:func:`extend` is the short-read pipeline's flank kernel (BWA-MEM's
``ksw_extend``): the start is anchored at a seed boundary, so the fill has
global edges, and the end is free, so the result is the best cell
anywhere, floored at 0 (clipping the whole flank).  It uses the same
``fill_matrices`` and :func:`traceback_global`, walked back from that cell.
"""

from __future__ import annotations

import numpy as np

from repro.genome import sequence as seq
from repro.extension.alignment import Alignment, Cigar
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import DPMatrices, fill_matrices


def traceback_global(matrices: DPMatrices, read_codes: np.ndarray,
                     ref_codes: np.ndarray,
                     scoring: ScoringScheme) -> Cigar:
    """Walk from (m, n) to (0, 0), with m and n the lengths of the codes
    given: passing prefixes walks back from an inner cell."""
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
    matrices = fill_matrices(read_codes[None], ref_codes[None], scoring,
                             local=False)[0]
    cigar = traceback_global(matrices, read_codes, ref_codes, scoring)
    return Alignment(score=int(matrices.h[-1, -1]), cigar=cigar,
                     read_start=0, read_end=read_codes.size,
                     ref_start=0, ref_end=ref_codes.size,
                     cells=matrices.cells)


def extend(query, target, scoring: ScoringScheme = BWA_MEM_SCORING
           ) -> Alignment:
    """Best extension of ``query`` along ``target`` from their common start.

    Both sequences begin at the anchor (a seed boundary; a left flank is
    passed reversed); the alignment may end anywhere, and ends at the
    start when no extension scores above 0.  ``read_end``/``ref_end`` are
    the bases consumed; unconsumed query bases are the caller's clip.
    """
    query_codes = seq.as_codes(query)
    target_codes = seq.as_codes(target)
    if query_codes.size == 0 or target_codes.size == 0:
        # Every path consumes bases of one side only, so none beats 0.
        return Alignment(score=0, cigar=Cigar(()), read_start=0, read_end=0,
                         ref_start=0, ref_end=0)
    matrices = fill_matrices(query_codes[None], target_codes[None], scoring,
                             local=False)[0]
    return extension_from_matrices(matrices, query_codes, target_codes,
                                   scoring)


def extension_from_matrices(matrices: DPMatrices, query_codes: np.ndarray,
                            target_codes: np.ndarray,
                            scoring: ScoringScheme) -> Alignment:
    """Best free-end extension from global-edge (``local=False``) matrices.

    The first best cell in row-major order wins a tie, so the shortest
    query extension is kept; ``H[0, 0] = 0`` makes that the empty one
    whenever nothing scores above 0.
    """
    end = np.unravel_index(int(np.argmax(matrices.h)), matrices.h.shape)
    i, j = int(end[0]), int(end[1])
    score = int(matrices.h[i, j])
    cigar = traceback_global(matrices, query_codes[:i], target_codes[:j],
                             scoring)
    return Alignment(score=score, cigar=cigar, read_start=0, read_end=i,
                     ref_start=0, ref_end=j, cells=matrices.cells)
