"""Seed filtering and chaining — the paper's Step-❷ Filter and Chain.

"Short seeds are filtered out while seeds with close coordinates chain each
other into longer seeds by introducing a few edit errors." The output of
this stage is the stream of *hits* the Coordinator buffers and dispatches to
extension units; a hit's length (its extension span) is the statistic the
whole Extension Scheduler design keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Anchor:
    """A located exact match: a read span at a specific reference position.

    Attributes:
        read_start / read_end: half-open span on the read.
        ref_start: reference position (linear coords) where the span matches.
        reverse: True when the anchor comes from the reverse-complement read.
    """

    read_start: int
    read_end: int
    ref_start: int
    reverse: bool = False

    def __post_init__(self) -> None:
        if self.read_end <= self.read_start:
            raise ValueError(f"empty anchor span [{self.read_start}, {self.read_end})")

    @property
    def length(self) -> int:
        return self.read_end - self.read_start

    @property
    def ref_end(self) -> int:
        return self.ref_start + self.length

    @property
    def diagonal(self) -> int:
        """ref_start - read_start; co-linear anchors share a diagonal."""
        return self.ref_start - self.read_start


@dataclass(frozen=True)
class Chain:
    """A chained group of anchors, ready for seed extension.

    The chain's spans are the union bounding boxes of its anchors; the
    difference between ``read_end`` and ``read_start`` is the ``hit_len``
    statistic the Coordinator computes in its step ❷ (Fig 10).
    """

    anchors: tuple
    reverse: bool

    @property
    def read_start(self) -> int:
        return min(a.read_start for a in self.anchors)

    @property
    def read_end(self) -> int:
        return max(a.read_end for a in self.anchors)

    @property
    def ref_start(self) -> int:
        return min(a.ref_start for a in self.anchors)

    @property
    def ref_end(self) -> int:
        return max(a.ref_end for a in self.anchors)

    @property
    def length(self) -> int:
        """Extension task scale: the read span covered by the chain."""
        return self.read_end - self.read_start

    @property
    def anchor_bases(self) -> int:
        """Total anchor bases (chain weight, used for ranking)."""
        return sum(a.length for a in self.anchors)


def filter_anchors(anchors: Sequence[Anchor], min_length: int) -> List[Anchor]:
    """Drop anchors shorter than ``min_length`` (Fig 1: Seed 1 filtered)."""
    if min_length < 0:
        raise ValueError(f"min_length must be >= 0, got {min_length}")
    return [a for a in anchors if a.length >= min_length]


def chain_anchors(
    anchors: Sequence[Anchor], max_gap: int = 100, max_diagonal_diff: int = 25
) -> List[Chain]:
    """Greedily chain co-linear anchors (Fig 1: Seed 2 + Seed 3 → Seed 2+3).

    Anchors on the same strand whose diagonals differ by at most
    ``max_diagonal_diff`` (tolerating a few edit errors) and whose reference
    gap is at most ``max_gap`` are merged into one chain. Greedy scan over
    anchors sorted by (strand, ref_start) — the same O(n log n) approach
    BWA-MEM's chaining uses at heart.
    """
    if max_gap < 0:
        raise ValueError(f"max_gap must be >= 0, got {max_gap}")
    if max_diagonal_diff < 0:
        raise ValueError(f"max_diagonal_diff must be >= 0, got {max_diagonal_diff}")

    ordered = sorted(anchors, key=lambda a: (a.reverse, a.ref_start, a.read_start))
    chains: List[List[Anchor]] = []
    for anchor in ordered:
        merged = False
        for group in reversed(chains):
            last = group[-1]
            if last.reverse != anchor.reverse:
                continue
            if anchor.ref_start - last.ref_end > max_gap:
                # Later anchors only move right; no earlier group can match
                # either once we've walked past the gap horizon.
                break
            if (
                abs(anchor.diagonal - last.diagonal) <= max_diagonal_diff
                and anchor.read_start >= last.read_start
            ):
                group.append(anchor)
                merged = True
                break
        if not merged:
            chains.append([anchor])
    return [Chain(tuple(group), group[0].reverse) for group in chains]


def top_chains(chains: Sequence[Chain], limit: int) -> List[Chain]:
    """Keep the ``limit`` heaviest chains (BWA-MEM drops shadowed chains)."""
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    ranked = sorted(chains, key=lambda c: c.anchor_bases, reverse=True)
    return ranked[:limit]
