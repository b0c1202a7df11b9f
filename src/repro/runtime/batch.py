"""Batch front-end to the extension kernels.

Seed-extension jobs within one alignment run are highly shape-redundant:
reads share a length, and the chaining step emits reference windows padded
to near-constant sizes.  This module packs same-shaped jobs together and
fills their DP matrices with single vectorized
:func:`~repro.extension.smith_waterman.fill_matrices_batch` calls, so the
per-row Python loop of the kernel is paid once per batch instead of once
per job.  Tracebacks remain per-job (they are data-dependent walks), and
results are bit-identical to calling
:func:`~repro.extension.smith_waterman.smith_waterman` job by job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.extension.alignment import Alignment
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import (
    alignment_from_matrices,
    fill_matrices_batch,
    smith_waterman,
)
from repro.genome import sequence as seq

#: Upper bound on jobs fused into one kernel call.  Each job holds three
#: int64 matrices of (m+1)x(n+1); 64 standard short-read extensions stay
#: well under 50 MB while amortising essentially all of the loop overhead.
DEFAULT_MAX_BATCH = 64


@dataclass(frozen=True)
class ExtensionJob:
    """One seed-extension work item with its owner's identity."""

    read_idx: int
    hit_idx: int
    query: str
    reference: str


def smith_waterman_batch(pairs: Sequence[Tuple[str, str]],
                         scoring: ScoringScheme = BWA_MEM_SCORING,
                         max_batch: int = DEFAULT_MAX_BATCH,
                         ) -> List[Alignment]:
    """Align every ``(query, reference)`` pair; results in input order.

    Pairs whose encoded shapes match are packed into shared
    ``fill_matrices_batch`` calls (up to ``max_batch`` at a time);
    odd-shaped singletons fall back to the scalar front-end.  Every result
    equals ``smith_waterman(query, reference, scoring)`` exactly.
    """
    if max_batch <= 0:
        raise ValueError(f"max_batch must be positive, got {max_batch}")
    results: List[Optional[Alignment]] = [None] * len(pairs)
    groups: Dict[Tuple[int, int], List[int]] = {}
    encoded: List[Tuple[np.ndarray, np.ndarray]] = []
    for idx, (query, reference) in enumerate(pairs):
        query_codes = seq.as_codes(query)
        ref_codes = seq.as_codes(reference)
        encoded.append((query_codes, ref_codes))
        shape = (query_codes.size, ref_codes.size)
        if 0 in shape:
            # Degenerate jobs never reach the kernel; delegate directly.
            results[idx] = smith_waterman(query, reference, scoring=scoring)
            continue
        groups.setdefault(shape, []).append(idx)

    for indices in groups.values():
        if len(indices) == 1:
            idx = indices[0]
            query, reference = pairs[idx]
            results[idx] = smith_waterman(query, reference, scoring=scoring)
            continue
        for start in range(0, len(indices), max_batch):
            chunk = indices[start:start + max_batch]
            query_stack = np.stack([encoded[i][0] for i in chunk])
            ref_stack = np.stack([encoded[i][1] for i in chunk])
            matrices = fill_matrices_batch(query_stack, ref_stack, scoring)
            for slot, idx in enumerate(chunk):
                results[idx] = alignment_from_matrices(
                    matrices[slot], encoded[idx][0], encoded[idx][1],
                    scoring)
    # Every slot is filled exactly once (kernel, singleton, or degenerate).
    return results  # type: ignore[return-value]


def extend_jobs(jobs: Sequence[ExtensionJob],
                scoring: ScoringScheme = BWA_MEM_SCORING,
                max_batch: int = DEFAULT_MAX_BATCH,
                ) -> Dict[Tuple[int, int], Alignment]:
    """Batched extension of identified jobs, keyed by (read, hit) index."""
    alignments = smith_waterman_batch(
        [(job.query, job.reference) for job in jobs],
        scoring=scoring, max_batch=max_batch)
    return {(job.read_idx, job.hit_idx): alignment
            for job, alignment in zip(jobs, alignments)}
