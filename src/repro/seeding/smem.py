"""Super-maximal exact match (SMEM) finding — the paper's Step-❶ Find Seeds.

"The read accepts a start position as input and extends forward and backward
as long as possible using exact matching algorithms." This is BWA-MEM's SMEM
procedure (Li 2012): from a pivot position, extend forward collecting the
intervals at every width change, then sweep backward; a match that can no
longer be extended on either side and is not contained in another match of
the read is an SMEM.

The implementation runs on :class:`BidirectionalFMIndex`, an FMD-index over
``T + revcomp(T)``, so one pass over the read finds its matches on both
strands: occurrence counts and super-maximality are over both. Its
Occ-access metering feeds the seeding-unit cycle model — the functional
algorithm and the hardware timing share this code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.genome import sequence as seq
from repro.seeding.bidirectional import BidirectionalFMIndex, BiInterval


@dataclass(frozen=True)
class SMEM:
    """A super-maximal exact match of a read against the reference.

    Attributes:
        read_start / read_end: half-open span on the read.
        interval: bidirectional SA interval of the matched string.
    """

    read_start: int
    read_end: int
    interval: BiInterval

    @property
    def length(self) -> int:
        return self.read_end - self.read_start

    @property
    def occurrences(self) -> int:
        return self.interval.s


def smems_covering(
    index: BidirectionalFMIndex, codes: np.ndarray, pivot: int, min_length: int = 1
) -> Tuple[List[SMEM], int]:
    """SMEMs of ``codes`` that cover position ``pivot``.

    Returns ``(smems, next_pivot)`` where ``next_pivot`` is the end of the
    longest match covering ``pivot`` (the standard BWA-MEM re-seeding point),
    or ``pivot + 1`` when even the single base does not occur.
    """
    n = codes.size
    if not 0 <= pivot < n:
        raise IndexError(f"pivot {pivot} outside read of length {n}")

    bi = index.base_interval(int(codes[pivot]))
    if bi.empty:
        return [], pivot + 1

    # Forward sweep: remember the interval for read[pivot:i] whenever the
    # width is about to shrink; entries end up ordered by increasing end.
    forward: List[Tuple[BiInterval, int]] = []
    for i in range(pivot + 1, n):
        nxt = index.extend_forward(bi, int(codes[i]))
        if nxt.s != bi.s:
            forward.append((bi, i))
        if nxt.empty:
            break
        bi = nxt
    else:
        forward.append((bi, n))

    longest_end = forward[-1][1]

    # Backward sweep: extend every candidate left simultaneously, largest
    # end first. At a given left boundary the dying candidates form a
    # prefix of that order (a superstring failing implies its substrings
    # with the same start may still survive, never the reverse), and only
    # the largest-end one is an SMEM — the rest share its start and are
    # contained in it. Across boundaries starts and ends both strictly
    # decrease, so cross-boundary containment is impossible.
    matches: List[SMEM] = []
    prev = list(reversed(forward))  # largest end first
    i = pivot - 1
    while True:
        curr: List[Tuple[BiInterval, int]] = []
        last_width = -1
        recorded_here = False
        for interval, end in prev:
            extended = (
                index.extend_backward(interval, int(codes[i])) if i >= 0 else BiInterval(0, 0, 0)
            )
            if extended.empty:
                if not recorded_here:
                    recorded_here = True
                    if end - (i + 1) >= min_length:
                        matches.append(SMEM(i + 1, end, interval))
            elif extended.s != last_width:
                last_width = extended.s
                curr.append((extended, end))
        if not curr:
            break
        prev = curr
        i -= 1

    return matches, longest_end


def find_smems(
    index: BidirectionalFMIndex, read, min_length: int = 19, max_occurrences: Optional[int] = None
) -> List[SMEM]:
    """All SMEMs of a read, BWA-MEM pivot-jumping enumeration.

    Args:
        index: FMD-index of the reference (both strands).
        read: DNA string or code array.
        min_length: discard matches shorter than this (BWA-MEM default 19).
        max_occurrences: discard matches occurring more often than this on
            both strands together (repeat masking, like BWA-MEM's ``max_occ``).
    """
    codes = seq.as_codes(read)
    out: List[SMEM] = []
    pivot = 0
    while pivot < codes.size:
        found, next_pivot = smems_covering(index, codes, pivot, min_length=min_length)
        out.extend(found)
        pivot = max(next_pivot, pivot + 1)
    out.sort(key=lambda m: (m.read_start, m.read_end))
    deduped = _drop_contained(out)
    if max_occurrences is not None:
        deduped = [m for m in deduped if m.occurrences <= max_occurrences]
    return deduped


def _drop_contained(matches: List[SMEM]) -> List[SMEM]:
    """Remove matches contained in another (containment across pivots)."""
    kept: List[SMEM] = []
    best_end = -1
    for match in matches:  # sorted by (start, end)
        if match.read_end <= best_end:
            continue
        while (
            kept and kept[-1].read_start == match.read_start and kept[-1].read_end <= match.read_end
        ):
            kept.pop()
        kept.append(match)
        best_end = max(best_end, match.read_end)
    return kept
