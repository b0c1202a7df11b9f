"""FMD-index: one FM-index over both strands, with two-way extension.

BWA-MEM finds super-maximal exact matches (SMEMs) by extending a match both
forward and backward on one FM-index of ``X = T + revcomp(T)`` (Li 2012).
``X`` is its own reverse complement, so extending a pattern P forward is
extending revcomp(P) backward on the same index, and one SMEM pass over a
read finds its matches on both strands. A :class:`BiInterval` ``(k, l, s)``
holds P's interval ``[k, k+s)`` in SA(X) and revcomp(P)'s ``[l, l+s)``.

Occurrence counts are over both strands, the ``T | revcomp(T)`` junction
included; :meth:`BidirectionalFMIndex.locate` never reports a match that
spans the junction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.genome import sequence as seq
from repro.seeding.fmindex import FMIndex, SAInterval


@dataclass(frozen=True)
class BiInterval:
    """Synchronised bidirectional SA interval for a matched pattern.

    Attributes:
        k: interval start in SA(X) for the pattern.
        l: interval start in SA(X) for its reverse complement.
        s: interval width = number of occurrences on both strands.
    """

    k: int
    l: int
    s: int

    @property
    def empty(self) -> bool:
        return self.s <= 0


class BidirectionalFMIndex:
    """FMD-index: one FM-index over ``T + revcomp(T)``.

    Args:
        text: DNA string or uint8 code array (the reference ``T``).
        occ_interval: checkpoint spacing of the FM-index.
        sa_sample: suffix-array sampling rate of the FM-index.

    ``length`` is ``len(T)``; the FM-index itself covers ``2 * length``.
    """

    def __init__(self, text, occ_interval: int = 64, sa_sample: int = 1):
        codes = seq.as_codes(text)
        both = np.concatenate([codes, 3 - codes[::-1]])
        self._bind(FMIndex(both, occ_interval=occ_interval, sa_sample=sa_sample))

    @classmethod
    def from_fm_index(cls, fm: FMIndex) -> "BidirectionalFMIndex":
        """Wrap a prebuilt FM-index over ``T + revcomp(T)`` (the zero-copy
        attach path of :class:`repro.seeding.store.IndexStore`)."""
        index = cls.__new__(cls)
        index._bind(fm)
        return index

    def _bind(self, fm: FMIndex) -> None:
        self.fm = fm
        self.length = fm.length // 2
        self._cum = fm.cumulative_counts

    def full_interval(self) -> BiInterval:
        """The empty-pattern interval covering every suffix."""
        return BiInterval(0, 0, self.fm.length + 1)

    def base_interval(self, code: int) -> BiInterval:
        """Interval of the single-base pattern ``code``."""
        return self.extend_backward(self.full_interval(), code)

    def _extend(self, k: int, l: int, s: int, code: int) -> Tuple[int, int, int]:
        """Prepend ``code`` to the pattern whose interval is ``(k, l, s)``.

        One :meth:`FMIndex.occ_pair` narrows ``k``. Within revcomp(P)'s
        interval, rows sort by the symbol after revcomp(P): the sentinel
        first, then complements in code order, i.e. bases in reverse code
        order. The new partner start skips the sentinel rows and the rows of
        every base above ``code``.
        """
        occ_lo, sizes = self.fm.occ_pair(code, k, k + s)
        skipped = s - sum(sizes[: code + 1])
        return self._cum[code] + occ_lo, l + skipped, sizes[code]

    def extend_backward(self, bi: BiInterval, code: int) -> BiInterval:
        """Prepend ``code`` to the pattern (extend left in the text)."""
        k, l, s = self._extend(bi.k, bi.l, bi.s, code)
        return BiInterval(k, l, s)

    def extend_forward(self, bi: BiInterval, code: int) -> BiInterval:
        """Append ``code`` to the pattern (extend right in the text): prepend
        its complement to revcomp(P), with the roles of ``k`` and ``l``
        swapped."""
        l, k, s = self._extend(bi.l, bi.k, bi.s, 3 - code)
        return BiInterval(k, l, s)

    def search(self, pattern) -> BiInterval:
        """Bidirectional interval of an exact pattern (built backward)."""
        bi = self.full_interval()
        for code in reversed(seq.as_codes(pattern)):
            bi = self.extend_backward(bi, int(code))
            if bi.empty:
                return bi
        return bi

    def locate(
        self, bi: BiInterval, length: int, max_hits: Optional[int] = None
    ) -> List[Tuple[int, bool]]:
        """Occurrences of the length-``length`` pattern in ``T``.

        Returns ``(position, reverse)`` pairs sorted by strand, then
        position. An occurrence at ``p >= n`` in revcomp(T) is revcomp(P) at
        ``2n - p - length`` in T (``reverse`` is True); one that spans the
        ``T | revcomp(T)`` junction matches neither strand and is dropped.
        """
        n = self.length
        out = []
        for pos in self.fm.locate(SAInterval(bi.k, bi.k + bi.s), max_hits=max_hits):
            if pos + length <= n:
                out.append((pos, False))
            elif pos >= n:
                out.append((2 * n - pos - length, True))
        return sorted(out)

    @property
    def occ_accesses(self) -> int:
        """Occ-block fetches of the FM-index since the last reset."""
        return self.fm.stats.occ_accesses

    def reset_stats(self) -> None:
        self.fm.stats.reset()
