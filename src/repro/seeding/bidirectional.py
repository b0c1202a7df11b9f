"""Bidirectional FM-index (FMD-style) supporting two-way extension.

BWA-MEM finds super-maximal exact matches (SMEMs) by extending a match both
forward and backward while tracking synchronised suffix-array intervals in
an index of the text and an index of the reversed text (Li 2012). This
module implements that structure from scratch on top of :class:`FMIndex`.

A :class:`BiInterval` ``(k, l, s)`` represents a matched pattern ``P``:
``[k, k+s)`` is P's interval in SA(T) and ``[l, l+s)`` is reverse(P)'s
interval in SA(reverse(T)). Backward extension (prepending a base) updates
``k`` with one Occ-block pair on the forward index and re-partitions ``l``
arithmetically; forward extension is the mirror image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.genome import sequence as seq
from repro.seeding.fmindex import FMIndex, SAInterval


@dataclass(frozen=True)
class BiInterval:
    """Synchronised bidirectional SA interval for a matched pattern.

    Attributes:
        k: interval start in SA(T) for the pattern.
        l: interval start in SA(reverse(T)) for the reversed pattern.
        s: interval width = number of occurrences.
    """

    k: int
    l: int
    s: int

    @property
    def empty(self) -> bool:
        return self.s <= 0

    def forward_interval(self) -> SAInterval:
        """The pattern's interval in the forward index (for locating)."""
        return SAInterval(self.k, self.k + self.s)


class BidirectionalFMIndex:
    """Two FM-indexes (text and reversed text) with synchronised intervals.

    Args:
        text: DNA string or uint8 code array.
        occ_interval: checkpoint spacing shared by both underlying indexes.
        sa_sample: suffix-array sampling rate shared by both indexes.
    """

    def __init__(self, text, occ_interval: int = 64, sa_sample: int = 1):
        codes = text if isinstance(text, np.ndarray) else seq.encode(text)
        codes = np.asarray(codes, dtype=np.uint8)
        self._bind(
            FMIndex(codes, occ_interval=occ_interval, sa_sample=sa_sample),
            FMIndex(codes[::-1].copy(), occ_interval=occ_interval, sa_sample=sa_sample),
        )

    @classmethod
    def from_indexes(cls, forward: FMIndex, backward: FMIndex) -> "BidirectionalFMIndex":
        """Wrap two prebuilt component indexes (text and reversed text).

        This is the zero-copy attach path used by
        :class:`repro.seeding.store.IndexStore`: the components arrive as
        memmap-backed :meth:`FMIndex.from_arrays` instances and no suffix
        array is constructed here.
        """
        if forward.length != backward.length:
            raise ValueError(f"component lengths differ: {forward.length} != {backward.length}")
        index = cls.__new__(cls)
        index._bind(forward, backward)
        return index

    def _bind(self, forward: FMIndex, backward: FMIndex) -> None:
        self.length = forward.length
        self.forward = forward
        self.backward = backward
        self._cum_fwd = forward.cumulative_counts
        self._cum_bwd = backward.cumulative_counts

    def full_interval(self) -> BiInterval:
        """The empty-pattern interval covering every suffix."""
        return BiInterval(0, 0, self.length + 1)

    def base_interval(self, code: int) -> BiInterval:
        """Interval of the single-base pattern ``code``."""
        return self.extend_backward(self.full_interval(), code)

    def extend_backward(self, bi: BiInterval, code: int) -> BiInterval:
        """Prepend ``code`` to the pattern (extend left in the text).

        One :meth:`FMIndex.occ_pair` on the forward index narrows ``k``; the
        partner start ``l`` then skips the rows that sort first. Within the
        partner interval, occurrences continuing with the sentinel sort
        first, then bases in code order, so those are the rows that do not
        continue with ``code`` or a larger base.
        """
        occ_lo, sizes = self.forward.occ_pair(code, bi.k, bi.k + bi.s)
        before = bi.s - sum(sizes[code:])
        return BiInterval(self._cum_fwd[code] + occ_lo, bi.l + before, sizes[code])

    def extend_forward(self, bi: BiInterval, code: int) -> BiInterval:
        """Append ``code`` to the pattern (extend right in the text): the
        mirror image of :meth:`extend_backward` on the reverse-text index."""
        occ_lo, sizes = self.backward.occ_pair(code, bi.l, bi.l + bi.s)
        before = bi.s - sum(sizes[code:])
        return BiInterval(bi.k + before, self._cum_bwd[code] + occ_lo, sizes[code])

    def search(self, pattern) -> BiInterval:
        """Bidirectional interval of an exact pattern (built backward)."""
        codes = pattern if isinstance(pattern, np.ndarray) else seq.encode(pattern)
        bi = self.full_interval()
        for code in reversed(np.asarray(codes, dtype=np.uint8)):
            bi = self.extend_backward(bi, int(code))
            if bi.empty:
                return bi
        return bi

    def locate(self, bi: BiInterval, max_hits: Optional[int] = None) -> List[int]:
        """Text positions of the pattern's occurrences (forward coords)."""
        return self.forward.locate(bi.forward_interval(), max_hits=max_hits)

    @property
    def occ_accesses(self) -> int:
        """Total Occ-block fetches across both component indexes."""
        return self.forward.stats.occ_accesses + self.backward.stats.occ_accesses

    def reset_stats(self) -> None:
        self.forward.stats.reset()
        self.backward.stats.reset()

