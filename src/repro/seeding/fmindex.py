"""FM-index with sampled occurrence checkpoints and SA sampling.

This is the seeding-phase index the paper's SUs implement in hardware (the
LFMapBit design of Wang et al. [65], "the FM-index interval is set to 128").
Every occurrence-count lookup touches one checkpoint block in memory, so the
index also *meters its own memory traffic*: the SU cycle model charges DRAM
latency per recorded access, which is how the functional and timing layers
share one code path.

In software every lookup is one scalar rank kernel: a checkpoint counter plus
a ``bytes.count`` over the partial block, both read through ``memoryview``s
of the index's own arrays, so it runs no numpy code and costs the same on
in-memory and memory-mapped indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.genome import sequence as seq
from repro.seeding.bwt import SENTINEL, bwt_from_suffix_array, extended_suffix_array


@dataclass(frozen=True)
class SAInterval:
    """A half-open interval ``[lo, hi)`` of suffix-array rows.

    ``width`` is the number of occurrences of the matched pattern.
    """

    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo

    @property
    def empty(self) -> bool:
        return self.hi <= self.lo


@dataclass
class AccessStats:
    """Counts of index memory accesses, consumed by the SU cycle model.

    ``occ_accesses`` — occurrence-checkpoint block fetches (one per Occ query,
    matching the one-block-per-lookup property of the LFMapBit layout).
    ``sa_accesses`` — suffix-array sample fetches during locate.
    """

    occ_accesses: int = 0
    sa_accesses: int = 0

    @property
    def total(self) -> int:
        return self.occ_accesses + self.sa_accesses

    def reset(self) -> None:
        self.occ_accesses = 0
        self.sa_accesses = 0


class FMIndex:
    """FM-index over a DNA text.

    Args:
        text: DNA string or uint8 code array to index.
        occ_interval: checkpoint spacing for the Occ table (paper: 128).
        sa_sample: keep every ``sa_sample``-th suffix-array entry (by text
            position); 1 stores the full SA. Sampling trades memory for the
            LF-walk accesses a real design performs during locate.
    """

    def __init__(self, text, occ_interval: int = 128, sa_sample: int = 1):
        if occ_interval <= 0:
            raise ValueError(f"occ_interval must be positive, got {occ_interval}")
        if sa_sample <= 0:
            raise ValueError(f"sa_sample must be positive, got {sa_sample}")
        codes = text if isinstance(text, np.ndarray) else seq.encode(text)
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.size == 0:
            raise ValueError("cannot index an empty text")

        self.length = int(codes.size)
        self.occ_interval = occ_interval
        self.sa_sample = sa_sample
        self.stats = AccessStats()

        sa_ext = extended_suffix_array(codes)
        self._bwt = bwt_from_suffix_array(codes, sa_ext)
        m = self._bwt.size  # text length + 1

        # Cumulative counts: row 0 is the sentinel, then bases in code order.
        base_counts = np.bincount(codes, minlength=seq.ALPHABET_SIZE)
        self._cum = np.empty(seq.ALPHABET_SIZE + 1, dtype=np.int64)
        self._cum[0] = 1  # sentinel occupies the first F-column row
        np.cumsum(base_counts, out=self._cum[1:])
        self._cum[1:] += 1

        # Occ checkpoints every `occ_interval` BWT positions: row ``ck`` holds
        # the base counts in ``bwt[0 : ck * occ_interval]``.
        n_ckpt = m // occ_interval + 1
        self._occ_ckpt = np.zeros((n_ckpt, seq.ALPHABET_SIZE), dtype=np.int64)
        for code in range(seq.ALPHABET_SIZE):
            prefix = np.cumsum(self._bwt == code, dtype=np.int64)
            self._occ_ckpt[1:, code] = prefix[occ_interval - 1 :: occ_interval]

        # Sampled suffix array, keyed by SA row; None marks unsampled rows.
        if sa_sample == 1:
            self._sa = sa_ext
            self._sa_mask = None
        else:
            self._sa = sa_ext
            self._sa_mask = (sa_ext % sa_sample == 0) | (sa_ext == self.length)
        self._attach_views()

    def _attach_views(self) -> None:
        """Build the rank kernel's views over the arrays this index holds.

        A byte view of the BWT and a flat ``int64`` view of the checkpoint
        table (counter ``code`` of checkpoint ``ck`` at ``4 * ck + code``).
        Both are ``memoryview``s over the arrays themselves, plain ``ndarray``
        or read-only ``np.memmap`` alike: nothing is copied, and reading them
        yields Python ints, so a lookup runs no numpy code.
        """
        self._rows = int(self._bwt.size)
        self._bwt_view = memoryview(self._bwt).cast("B")
        self._ckpt_view = memoryview(self._occ_ckpt).cast("B").cast("q")
        self._cum_ints = tuple(int(c) for c in self._cum)

    def __getstate__(self) -> Dict[str, object]:
        # memoryviews do not pickle; __setstate__ rebuilds them.
        state = dict(self.__dict__)
        for name in ("_bwt_view", "_ckpt_view"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._attach_views()

    # ------------------------------------------------------------------ #
    # Zero-copy (de)serialization — the index-store attach path
    # ------------------------------------------------------------------ #

    @classmethod
    def from_arrays(
        cls,
        bwt: np.ndarray,
        cum: np.ndarray,
        occ_ckpt: np.ndarray,
        sa: np.ndarray,
        sa_mask: Optional[np.ndarray],
        length: int,
        occ_interval: int,
        sa_sample: int,
    ) -> "FMIndex":
        """Assemble an index directly from prebuilt arrays, no construction.

        The arrays are used as-is (typically read-only ``np.memmap`` views from
        :class:`repro.seeding.store.IndexStore`), so this runs in microseconds
        regardless of genome size — the whole point of the on-disk store.
        Queries against the result are bit-identical to a freshly built index.
        """
        if bwt.size != length + 1:
            raise ValueError(f"BWT has {bwt.size} symbols for a text of length {length}")
        index = cls.__new__(cls)
        index.length = int(length)
        index.occ_interval = int(occ_interval)
        index.sa_sample = int(sa_sample)
        index.stats = AccessStats()
        index._bwt = bwt
        index._cum = cum
        index._occ_ckpt = occ_ckpt
        index._sa = sa
        index._sa_mask = sa_mask
        index._attach_views()
        return index

    def export_arrays(self) -> Dict[str, np.ndarray]:
        """The raw arrays that fully determine this index (for serialization)."""
        out = {"bwt": self._bwt, "cum": self._cum, "occ_ckpt": self._occ_ckpt, "sa": self._sa}
        if self._sa_mask is not None:
            out["sa_mask"] = self._sa_mask
        return out

    # ------------------------------------------------------------------ #
    # Core FM operations
    # ------------------------------------------------------------------ #

    def occ(self, code: int, row: int) -> int:
        """Occurrences of ``code`` in ``bwt[0:row]``; one memory access."""
        if not 0 <= code < seq.ALPHABET_SIZE:
            raise ValueError(f"code must be 0..3, got {code}")
        if not 0 <= row <= self._rows:
            raise IndexError(f"row {row} outside BWT of size {self._rows}")
        self.stats.occ_accesses += 1
        return self._rank(int(code), row)

    def occ_all(self, row: int) -> Tuple[int, int, int, int]:
        """Occurrences of every base in ``bwt[0:row]``; one memory access.

        The LFMapBit checkpoint block stores all four counters together, so
        a single block fetch answers all four queries — this is what makes
        the hardware's per-step cost one access rather than four.
        """
        if not 0 <= row <= self._rows:
            raise IndexError(f"row {row} outside BWT of size {self._rows}")
        self.stats.occ_accesses += 1
        return self._rank_all(row)

    def occ_pair(self, code: int, lo: int, hi: int) -> Tuple[int, Tuple[int, int, int, int]]:
        """``(occ(code, lo), per-base counts in bwt[lo:hi])``; two memory accesses.

        One bidirectional extension step: the checkpoint blocks of both
        interval ends. When the interval lies within one block, a single
        slice of it answers both.
        """
        if not 0 <= code < seq.ALPHABET_SIZE:
            raise ValueError(f"code must be 0..3, got {code}")
        if not 0 <= lo <= hi <= self._rows:
            raise IndexError(f"rows [{lo}, {hi}) outside BWT of size {self._rows}")
        self.stats.occ_accesses += 2
        code = int(code)
        step = self.occ_interval
        ck = lo // step
        start = ck * step
        if hi - start > step:
            below = self._rank_all(lo)
            upto = self._rank_all(hi)
            return below[code], (
                upto[0] - below[0],
                upto[1] - below[1],
                upto[2] - below[2],
                upto[3] - below[3],
            )
        block = self._bwt_view[start:hi].tobytes()
        split = lo - start
        count = block.count
        return (
            self._ckpt_view[4 * ck + code] + count(code, 0, split),
            (count(0, split), count(1, split), count(2, split), count(3, split)),
        )

    def _rank(self, code: int, row: int) -> int:
        """The rank kernel: the checkpoint counter plus a partial-block count."""
        ck = row // self.occ_interval
        start = ck * self.occ_interval
        count = self._ckpt_view[4 * ck + code]
        if row > start:
            count += self._bwt_view[start:row].tobytes().count(code)
        return count

    def _rank_all(self, row: int) -> Tuple[int, int, int, int]:
        """:meth:`_rank` for all four bases from one block."""
        ck = row // self.occ_interval
        start = ck * self.occ_interval
        table = self._ckpt_view
        base = 4 * ck
        if row == start:
            return table[base], table[base + 1], table[base + 2], table[base + 3]
        count = self._bwt_view[start:row].tobytes().count
        return (
            table[base] + count(0),
            table[base + 1] + count(1),
            table[base + 2] + count(2),
            table[base + 3] + count(3),
        )

    @property
    def cumulative_counts(self) -> Tuple[int, ...]:
        """The C array as Python ints: row 0 sentinel rank, then per-base
        cumulative counts."""
        return self._cum_ints

    def full_interval(self) -> SAInterval:
        """Interval covering every suffix (the empty-pattern match)."""
        return SAInterval(0, self._rows)

    def backward_extend(self, interval: SAInterval, code: int) -> SAInterval:
        """Extend the matched pattern by one symbol on the *left*."""
        cum = self._cum_ints[code]
        return SAInterval(cum + self.occ(code, interval.lo), cum + self.occ(code, interval.hi))

    def search(self, pattern) -> SAInterval:
        """SA interval of exact occurrences of ``pattern`` (may be empty)."""
        codes = self._pattern_codes(pattern)
        interval = self.full_interval()
        for code in reversed(codes):
            interval = self.backward_extend(interval, int(code))
            if interval.empty:
                return interval
        return interval

    def count(self, pattern) -> int:
        """Number of occurrences of ``pattern`` in the text."""
        return max(0, self.search(pattern).width)

    def longest_suffix_match(self, pattern) -> Tuple[int, SAInterval]:
        """Longest *suffix* of ``pattern`` occurring in the text.

        Returns ``(length, interval)`` where ``interval`` is the SA interval
        of that longest matching suffix (the full interval for length 0).
        """
        codes = self._pattern_codes(pattern)
        interval = self.full_interval()
        length = 0
        for code in reversed(codes):
            nxt = self.backward_extend(interval, int(code))
            if nxt.empty:
                break
            interval = nxt
            length += 1
        return length, interval

    def locate(self, interval: SAInterval, max_hits: Optional[int] = None) -> List[int]:
        """Text positions of the suffixes in ``interval``, sorted ascending.

        With a sampled SA, unsampled rows are resolved by LF-walking to the
        nearest sample; each step is metered as an occ access.
        """
        rows = range(interval.lo, min(interval.hi, self._bwt.size))
        positions = []
        for row in rows:
            if max_hits is not None and len(positions) >= max_hits:
                break
            positions.append(self._resolve_row(row))
        return sorted(positions)

    def _resolve_row(self, row: int) -> int:
        steps = 0
        current = row
        while self._sa_mask is not None and not self._sa_mask[current]:
            current = self._lf(current)
            steps += 1
        self.stats.sa_accesses += 1
        return int(self._sa[current]) + steps

    def _lf(self, row: int) -> int:
        code = self._bwt_view[row]
        if code == SENTINEL:
            return 0
        return self._cum_ints[code] + self.occ(code, row)

    @staticmethod
    def _pattern_codes(pattern) -> np.ndarray:
        if isinstance(pattern, np.ndarray):
            return np.asarray(pattern, dtype=np.uint8)
        return seq.encode(pattern)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.length

    def memory_footprint_bits(self) -> int:
        """Approximate index size in bits (2-bit BWT + checkpoints + SA)."""
        bwt_bits = 2 * self._bwt.size
        ckpt_bits = self._occ_ckpt.size * 32
        if self._sa_mask is None:
            sa_bits = self._sa.size * 32
        else:
            sa_bits = int(np.count_nonzero(self._sa_mask)) * 32
        return bwt_bits + ckpt_bits + sa_bits
