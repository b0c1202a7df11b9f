"""Affine-gap Smith-Waterman local alignment (Gotoh), with traceback.

This is the paper's Step-❸ algorithm ("compute-intensive approximate
matching") and the functional model behind the systolic-array EUs. Like
the EUs, which all run one Smith-Waterman datapath in different shapes,
the software has one vectorised fill, :func:`fill_matrices`: it stacks
``k`` same-shaped pairs, and its ``local`` flag picks Smith-Waterman or
the Needleman-Wunsch edges used by
:mod:`~repro.extension.needleman_wunsch`.  Rows are filled with the lazy-F
formulation (the horizontal gap chain is resolved with a prefix-max, which
is exact for affine gaps because opening a second gap can never beat
extending the first); a scalar reference implementation is kept alongside
as the oracle.

Cell counts are exposed because the EU cycle model charges Formula 3 latency
for exactly the cells this code fills — functional and timing layers share
one definition of "work".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.genome import sequence as seq
from repro.extension.alignment import Alignment, Cigar
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme

#: Effectively minus infinity for int64 DP without overflow on adds.
NEG = np.int64(-(10 ** 12))


@dataclass
class DPMatrices:
    """Filled DP state: H (best), E (gap-in-ref / insertion), F (deletion)."""

    h: np.ndarray
    e: np.ndarray
    f: np.ndarray

    @property
    def cells(self) -> int:
        rows, cols = self.h.shape
        return (rows - 1) * (cols - 1)


def fill_matrices(read_stack: np.ndarray, ref_stack: np.ndarray,
                  scoring: ScoringScheme,
                  local: bool = True) -> List[DPMatrices]:
    """Vectorised affine-gap fill of ``k`` same-shaped alignments at once.

    ``read_stack`` is ``(k, m)`` and ``ref_stack`` ``(k, n)`` (``k = 1``
    for a single pair); one :class:`DPMatrices` per pair comes back, each a
    view into one stacked fill.  Rows index the read (query), columns the
    reference. ``E`` tracks gaps that consume read bases (CIGAR I), ``F``
    gaps that consume reference bases (CIGAR D).

    ``local`` selects Smith-Waterman (zero edges, zero floor) or
    Needleman-Wunsch (gap-cost edges, no floor).  Substitution scores are
    looked up once into a ``(k, m, n)`` table; the row loop then runs once
    with every elementwise operation broadcast over the batch axis, so its
    Python-level cost is paid once per call, not once per pair.
    """
    if read_stack.ndim != 2 or ref_stack.ndim != 2:
        raise ValueError("fill expects 2-D (batch, length) arrays")
    if read_stack.shape[0] != ref_stack.shape[0]:
        raise ValueError("batch sizes differ between read and reference")
    k, m = read_stack.shape
    n = ref_stack.shape[1]
    open_ = scoring.gap_open
    ext = scoring.gap_extend
    sub = scoring.substitution_matrix()
    # One byte per table cell whenever the scores fit (every shipped
    # scheme); the adds below widen to int64 either way.
    if -128 <= scoring.mismatch and scoring.match <= 127:
        sub = sub.astype(np.int8)
    sub_table = sub[read_stack[:, :, None], ref_stack[:, None, :]]

    h = np.full((k, m + 1, n + 1), 0 if local else NEG, dtype=np.int64)
    e = np.full((k, m + 1, n + 1), NEG, dtype=np.int64)
    f = np.full((k, m + 1, n + 1), NEG, dtype=np.int64)
    if not local:
        h[:, 0, 0] = 0
        h[:, 0, 1:] = f[:, 0, 1:] = open_ + ext * np.arange(1, n + 1)
        h[:, 1:, 0] = e[:, 1:, 0] = open_ + ext * np.arange(1, m + 1)

    # Lazy F: F[j] = max_{c<j} H[c] + open + (j-c)·ext, a running max of
    # H[c] + open - c·ext; column 0 seeds it with H[i,0] + open, which is
    # the local clamp (H = 0) and the global edge term alike.
    ext_cols = ext * np.arange(1, n + 1, dtype=np.int64)
    f_bias = open_ - ext * np.arange(n, dtype=np.int64)
    prefix = np.empty((k, n), dtype=np.int64)
    for i in range(1, m + 1):
        e[:, i, 1:] = np.maximum(e[:, i - 1, 1:] + ext,
                                 h[:, i - 1, 1:] + (open_ + ext))
        h_no_f = np.maximum(h[:, i - 1, :-1] + sub_table[:, i - 1],
                            e[:, i, 1:])
        if local:
            np.maximum(h_no_f, 0, out=h_no_f)
        prefix[:, 0] = h[:, i, 0] + f_bias[0]
        np.add(h_no_f[:, :-1], f_bias[1:], out=prefix[:, 1:])
        np.maximum.accumulate(prefix, axis=1, out=f[:, i, 1:])
        f[:, i, 1:] += ext_cols
        np.maximum(h_no_f, f[:, i, 1:], out=h[:, i, 1:])
    return [DPMatrices(h[j], e[j], f[j]) for j in range(k)]


def fill_matrices_scalar(read_codes: np.ndarray, ref_codes: np.ndarray,
                         scoring: ScoringScheme,
                         local: bool = True) -> DPMatrices:
    """Straightforward O(mn) scalar fill — the oracle for the fast path.

    ``local`` has the meaning it has in :func:`fill_matrices`.
    """
    m, n = read_codes.size, ref_codes.size
    open_ext = scoring.gap_open + scoring.gap_extend
    ext = scoring.gap_extend
    floor = 0 if local else NEG

    h = np.full((m + 1, n + 1), floor, dtype=np.int64)
    e = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    f = np.full((m + 1, n + 1), NEG, dtype=np.int64)
    if not local:
        h[0, 0] = 0
        for j in range(1, n + 1):
            h[0, j] = f[0, j] = scoring.gap_open + ext * j
        for i in range(1, m + 1):
            h[i, 0] = e[i, 0] = scoring.gap_open + ext * i
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            e[i, j] = max(e[i - 1, j] + ext, h[i - 1, j] + open_ext)
            f[i, j] = max(f[i, j - 1] + ext, h[i, j - 1] + open_ext)
            diag = h[i - 1, j - 1] + scoring.substitution(
                int(read_codes[i - 1]), int(ref_codes[j - 1]))
            h[i, j] = max(floor, diag, e[i, j], f[i, j])
    return DPMatrices(h, e, f)


def traceback(matrices: DPMatrices, read_codes: np.ndarray,
              ref_codes: np.ndarray, scoring: ScoringScheme,
              end: Tuple[int, int]) -> Tuple[Cigar, int, int]:
    """Walk back from ``end`` until H hits 0; returns (cigar, i0, j0).

    ``i0``/``j0`` are the matrix coordinates where the local alignment
    starts (read/ref start offsets).
    """
    h, e, f = matrices.h, matrices.e, matrices.f
    ext = scoring.gap_extend
    open_ext = scoring.gap_open + scoring.gap_extend
    i, j = end
    ops = []
    state = "H"
    while True:
        if state == "H":
            if h[i, j] == 0:
                break
            diag = h[i - 1, j - 1] + scoring.substitution(
                int(read_codes[i - 1]), int(ref_codes[j - 1])) \
                if i > 0 and j > 0 else NEG
            if i > 0 and j > 0 and h[i, j] == diag:
                ops.append("M")
                i -= 1
                j -= 1
            elif h[i, j] == e[i, j]:
                state = "E"
            elif h[i, j] == f[i, j]:
                state = "F"
            else:  # pragma: no cover - matrices inconsistent
                raise AssertionError("traceback found no predecessor")
        elif state == "E":
            ops.append("I")
            came_from_h = h[i - 1, j] + open_ext == e[i, j]
            i -= 1
            if came_from_h:
                state = "H"
            # else stay in E (gap extension)
        else:  # state == "F"
            ops.append("D")
            came_from_h = h[i, j - 1] + open_ext == f[i, j]
            j -= 1
            if came_from_h:
                state = "H"
    return Cigar.from_ops(reversed(ops)), i, j


def smith_waterman(read, reference, scoring: ScoringScheme = BWA_MEM_SCORING,
                   use_scalar: bool = False) -> Alignment:
    """Best local alignment of ``read`` against ``reference``.

    Args:
        read / reference: DNA strings or uint8 code arrays.
        scoring: affine-gap scheme (BWA-MEM defaults).
        use_scalar: run the scalar oracle fill (for testing).
    """
    read_codes = seq.as_codes(read)
    ref_codes = seq.as_codes(reference)
    if read_codes.size == 0 or ref_codes.size == 0:
        return Alignment(score=0, cigar=Cigar(()), read_start=0, read_end=0,
                         ref_start=0, ref_end=0, cells=0)
    if use_scalar:
        matrices = fill_matrices_scalar(read_codes, ref_codes, scoring)
    else:
        matrices = fill_matrices(read_codes[None], ref_codes[None],
                                 scoring)[0]
    return alignment_from_matrices(matrices, read_codes, ref_codes, scoring)


def alignment_from_matrices(matrices: DPMatrices, read_codes: np.ndarray,
                            ref_codes: np.ndarray,
                            scoring: ScoringScheme) -> Alignment:
    """Best local alignment extracted from filled DP matrices.

    The shared tail of :func:`smith_waterman` and the batched front-end —
    one definition of argmax/traceback keeps the two paths bit-identical.
    """
    flat = int(np.argmax(matrices.h))
    end = np.unravel_index(flat, matrices.h.shape)
    score = int(matrices.h[end])
    if score <= 0:
        return Alignment(score=0, cigar=Cigar(()), read_start=0, read_end=0,
                         ref_start=0, ref_end=0, cells=matrices.cells)
    cigar, i0, j0 = traceback(matrices, read_codes, ref_codes, scoring,
                              (int(end[0]), int(end[1])))
    return Alignment(score=score, cigar=cigar,
                     read_start=i0, read_end=int(end[0]),
                     ref_start=j0, ref_end=int(end[1]),
                     cells=matrices.cells)
