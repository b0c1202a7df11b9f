"""Batch front-end to the extension kernel: Step ❸ of every alignment.

:meth:`~repro.align.pipeline.SoftwareAligner.extend_hit` hands the left
and right flanks of all of an ``align_all`` call's hits to
:func:`extend_batch`, so the in-process pipeline, the sharded runner and
the service engine share this one extension path.
:func:`smith_waterman_batch` is the same front-end over full-window local
alignment.  Flanks within a call are highly redundant:

- *Identical pairs.*  A read that chains to several byte-identical repeat
  copies, or the same read sent twice in one shard or served batch, asks
  for the same (oriented flank, reference flank) extension more than
  once.  Each distinct pair of encoded code bytes is filled and traced
  back once per call, and every duplicate shares its frozen
  :class:`~repro.extension.alignment.Alignment` (callers rebase it onto
  their own seed).  Nothing is kept between calls.
- *Empty flanks.*  A seed that reaches a read end leaves an empty flank,
  which is answered without a fill; a seed that covers the whole read
  costs no DP at all.
- *Shapes.*  Pairs whose shapes match are filled by single vectorized
  :func:`~repro.extension.smith_waterman.fill_matrices` calls (a shape
  seen once is a stack of one), so the per-row Python loop of the kernel
  is paid once per group instead of once per job.

Tracebacks remain per distinct pair (they are data-dependent walks), and
results are bit-identical to calling
:func:`~repro.extension.needleman_wunsch.extend` (or
:func:`~repro.extension.smith_waterman.smith_waterman`) job by job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.extension.alignment import Alignment
from repro.extension.needleman_wunsch import (
    extend,
    extension_from_matrices,
)
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.extension.smith_waterman import (
    alignment_from_matrices,
    fill_matrices,
    smith_waterman,
)
from repro.genome import sequence as seq

#: Upper bound on jobs fused into one kernel call.  Each job holds three
#: int64 matrices of (m+1)x(n+1); 64 standard short-read extensions stay
#: well under 50 MB while amortising essentially all of the loop overhead.
DEFAULT_MAX_BATCH = 64


def smith_waterman_batch(pairs: Sequence[Tuple[str, str]],
                         scoring: ScoringScheme = BWA_MEM_SCORING,
                         ) -> List[Alignment]:
    """Best local alignment of every ``(query, reference)`` pair, in order.

    Every result equals ``smith_waterman(query, reference, scoring)``
    exactly; grouping, deduplication and the ``extension_fill`` span are
    those of :func:`_fill_batch`.
    """
    return _fill_batch(pairs, scoring, local=True)


def extend_batch(pairs: Sequence[Tuple[str, str]],
                 scoring: ScoringScheme = BWA_MEM_SCORING,
                 ) -> List[Alignment]:
    """Anchored-start, free-end extension of every ``(query, target)``
    flank, in order.

    Every result equals ``extend(query, target, scoring)`` exactly;
    grouping, deduplication and the ``extension_fill`` span are those of
    :func:`_fill_batch`.
    """
    return _fill_batch(pairs, scoring, local=False)


def _fill_batch(pairs: Sequence[Tuple[str, str]], scoring: ScoringScheme,
                local: bool) -> List[Alignment]:
    """The shared front-end: ``local`` picks Smith-Waterman or extension.

    Pairs with equal encoded codes (strings or code arrays, either case)
    are filled once per call and share one result object; no state is
    kept between calls.  Distinct pairs whose shapes match share
    ``fill_matrices`` calls (up to ``DEFAULT_MAX_BATCH`` at a time); a
    pair with an empty side never reaches the kernel.  With tracing on,
    an ``extension_fill`` span records how many of the ``pairs`` were
    ``distinct`` and the ``cells_filled``.
    """
    single, finish = ((smith_waterman, alignment_from_matrices) if local
                      else (extend, extension_from_matrices))
    with obs.span("extension_fill", "runtime", pairs=len(pairs)) as span:
        results: List[Optional[Alignment]] = [None] * len(pairs)
        # Index of the first job with each job's codes: the job whose
        # alignment it takes.
        source: List[int] = []
        first: Dict[Tuple[bytes, bytes], int] = {}
        groups: Dict[Tuple[int, int], List[int]] = {}
        encoded: List[Tuple[np.ndarray, np.ndarray]] = []
        for idx, (query, reference) in enumerate(pairs):
            codes = (seq.as_codes(query), seq.as_codes(reference))
            encoded.append(codes)
            source.append(first.setdefault(
                (codes[0].tobytes(), codes[1].tobytes()), idx))
            if source[idx] != idx:
                continue
            shape = (codes[0].size, codes[1].size)
            if 0 in shape:
                # Degenerate jobs never reach the kernel; delegate directly.
                results[idx] = single(*codes, scoring=scoring)
                continue
            groups.setdefault(shape, []).append(idx)

        for indices in groups.values():
            for start in range(0, len(indices), DEFAULT_MAX_BATCH):
                chunk = indices[start:start + DEFAULT_MAX_BATCH]
                query_stack = np.stack([encoded[i][0] for i in chunk])
                ref_stack = np.stack([encoded[i][1] for i in chunk])
                filled = fill_matrices(query_stack, ref_stack, scoring,
                                       local=local)
                for matrices, idx in zip(filled, chunk):
                    results[idx] = finish(matrices, encoded[idx][0],
                                          encoded[idx][1], scoring)
        span.set_args(distinct=len(first), cells_filled=sum(
            m * n * len(indices) for (m, n), indices in groups.items()))
        # Every first occurrence is filled exactly once (kernel or
        # degenerate); duplicates take its object.
        return [results[i] for i in source]  # type: ignore[misc]
