"""GACT: tiled alignment with constant memory (Darwin's algorithm).

Sec. II-C: "Darwin and Darwin-WGA propose GACT based on the Smith-Waterman
algorithm, which can use constant hardware resources to perform an
arbitrary length matching." The trick: align a fixed-size tile, keep only
the *first* part of its traceback (the committed prefix), restart the next
tile from where the committed prefix ended, and repeat. Hardware never
stores more than one tile's DP matrix — which is how NvWa's EUs handle
long reads (Sec. V-F: "by using the iterative scheme of GACT").

This is the functional counterpart of
:func:`repro.extension.systolic.gact_tiled_latency`; tests verify it
approaches the optimal global alignment score while touching only
O(tile²) cells at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.genome import sequence as seq
from repro.extension.alignment import Alignment, Cigar
from repro.extension.needleman_wunsch import traceback_global
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import fill_matrices


@dataclass(frozen=True)
class GACTResult:
    """A GACT alignment plus its tiling statistics."""

    alignment: Alignment
    tiles: int
    max_tile_cells: int


def _commit_ops(cigar: Cigar, query_budget: int, ref_budget: int,
                last_tile: bool) -> Tuple[List[Tuple[int, str]], int, int]:
    """Take ops from the front of a tile's path until either sequence's
    committed budget is exhausted; returns (ops, q_consumed, r_consumed).

    On the last tile everything commits. The budgets keep an overlap
    region uncommitted so the next tile can revise it — GACT's accuracy
    mechanism.
    """
    ops: List[Tuple[int, str]] = []
    q_used = r_used = 0
    for length, op in cigar.ops:
        if last_tile:
            ops.append((length, op))
            continue
        take = length
        if op in "MI":
            take = min(take, query_budget - q_used)
        if op in "MD":
            take = min(take, ref_budget - r_used)
        if take <= 0:
            break
        ops.append((take, op))
        if op in "MI":
            q_used += take
        if op in "MD":
            r_used += take
        if take < length:
            break
    if last_tile:
        q_used = sum(l for l, op in ops if op in "MI")
        r_used = sum(l for l, op in ops if op in "MD")
    return ops, q_used, r_used


def gact_align(query, reference, tile_size: int = 128, overlap: int = 32,
               scoring: ScoringScheme = BWA_MEM_SCORING) -> GACTResult:
    """Global alignment of arbitrarily long sequences, one tile at a time.

    Args:
        tile_size: DP tile edge (Darwin uses 256-384; hardware SRAM size).
        overlap: uncommitted tail per tile — larger overlap = closer to
            the optimal path at more compute.
    """
    if tile_size <= 1:
        raise ValueError(f"tile_size must be > 1, got {tile_size}")
    if not 0 <= overlap < tile_size:
        raise ValueError(
            f"overlap must be in [0, tile_size), got {overlap}")
    query_codes = seq.as_codes(query)
    ref_codes = seq.as_codes(reference)
    m, n = query_codes.size, ref_codes.size
    if m == 0 or n == 0:
        from repro.extension.needleman_wunsch import needleman_wunsch
        return GACTResult(alignment=needleman_wunsch(query, reference,
                                                     scoring=scoring),
                          tiles=1 if (m or n) else 0, max_tile_cells=0)

    q_pos = r_pos = 0
    committed: List[Tuple[int, str]] = []
    tiles = 0
    max_cells = 0
    commit_budget = tile_size - overlap
    while q_pos < m or r_pos < n:
        q_tile = min(tile_size, m - q_pos)
        r_tile = min(tile_size, n - r_pos)
        tiles += 1
        last_tile = (q_pos + q_tile >= m) and (r_pos + r_tile >= n)
        tile_q = query_codes[q_pos:q_pos + q_tile]
        tile_r = ref_codes[r_pos:r_pos + r_tile]
        if tile_q.size == 0:
            committed.append((n - r_pos, "D"))
            r_pos = n
            break
        if tile_r.size == 0:
            committed.append((m - q_pos, "I"))
            q_pos = m
            break
        matrices = fill_matrices(tile_q[None], tile_r[None], scoring,
                                 local=False)[0]
        max_cells = max(max_cells, matrices.cells)
        cigar = traceback_global(matrices, tile_q, tile_r, scoring)
        ops, q_used, r_used = _commit_ops(cigar, commit_budget,
                                          commit_budget, last_tile)
        if q_used == 0 and r_used == 0:
            # Degenerate tile (pure-gap head longer than the budget):
            # commit one op to guarantee progress.
            length, op = cigar.ops[0]
            ops = [(1, op)]
            q_used = 1 if op in "MI" else 0
            r_used = 1 if op in "MD" else 0
        committed.extend(ops)
        q_pos += q_used
        r_pos += r_used
        if last_tile:
            q_pos = m
            r_pos = n
            break

    merged: List[Tuple[int, str]] = []
    for length, op in committed:
        if merged and merged[-1][1] == op:
            merged[-1] = (merged[-1][0] + length, op)
        else:
            merged.append((length, op))
    cigar = Cigar(tuple(merged))
    score = _score_cigar(cigar, query_codes, ref_codes, scoring)
    alignment = Alignment(score=score, cigar=cigar, read_start=0,
                          read_end=m, ref_start=0, ref_end=n,
                          cells=max_cells)
    return GACTResult(alignment=alignment, tiles=tiles,
                      max_tile_cells=max_cells)


def _score_cigar(cigar: Cigar, query_codes: np.ndarray,
                 ref_codes: np.ndarray, scoring: ScoringScheme) -> int:
    """Score a committed path (the stitched path's true global score)."""
    i = j = 0
    score = 0
    for length, op in cigar.ops:
        if op == "M":
            for _ in range(length):
                score += scoring.substitution(int(query_codes[i]),
                                              int(ref_codes[j]))
                i += 1
                j += 1
        elif op == "I":
            score += scoring.gap_cost(length)
            i += length
        elif op == "D":
            score += scoring.gap_cost(length)
            j += length
    if i != query_codes.size or j != ref_codes.size:
        raise AssertionError(
            f"GACT path consumed ({i}, {j}) of "
            f"({query_codes.size}, {ref_codes.size})")
    return score
