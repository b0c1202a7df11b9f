"""Deterministic scatter/gather merge for sharded align responses.

In sharded mode every align request fans out to all shard groups; each
shard aligns the read against only its chromosome subset and returns a
normal service payload (``sam``/``mapped``/``score``).  The gateway must
collapse those candidates into the single payload a one-server cluster
would have produced — and it must do so *deterministically*, because the
acceptance bar for the whole tier is byte-stable SAM output.

The rule, applied in order:

1. mapped beats unmapped;
2. higher ``score`` beats lower (the aligner's own best-local score,
   forwarded by the engine precisely for this comparison);
3. ties break toward the **lowest shard index** — the same winner every
   run, regardless of which backend answered first on the wire.

Payloads missing a ``score`` (an older backend) still merge: a missing
score sorts below any present score, mirroring how the aligner treats a
read with no accepted chain.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple


class MergeError(ValueError):
    """Gathered responses cannot be merged into one payload."""


def _rank(payload: Dict[str, Any], shard: int) -> Tuple[int, float, int]:
    """Sort key: best candidate first.

    mapped desc, score desc, shard asc — encoded so that ``min`` picks
    the winner (negations keep the tuple orderable on one pass).
    """
    mapped = bool(payload.get("mapped"))
    score = payload.get("score")
    score_rank = float(score) if isinstance(score, (int, float)) else \
        float("-inf")
    return (0 if mapped else 1, -score_rank, shard)


def merge_align_payloads(
        candidates: Sequence[Tuple[int, Dict[str, Any]]],
) -> Dict[str, Any]:
    """Pick the winning shard payload for one scattered align request.

    Args:
        candidates: ``(shard_index, payload)`` pairs, one per shard that
            answered.  Order does not matter; the merge result is a pure
            function of the set.

    Returns:
        The winning payload, passed through verbatim — SAM lines were
        rendered by the shard's engine with full-reference chromosome
        names and coordinates, so no rewriting is needed (or wanted:
        rewriting would be a second place to get SAM emission wrong).
    """
    if not candidates:
        raise MergeError("no shard responses to merge")
    shards_seen = [shard for shard, _ in candidates]
    if len(set(shards_seen)) != len(shards_seen):
        raise MergeError(f"duplicate shard responses: {sorted(shards_seen)}")
    best_shard, best = min(candidates,
                           key=lambda item: _rank(item[1], item[0]))
    merged = dict(best)
    merged["shard"] = best_shard
    return merged
