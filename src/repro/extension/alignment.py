"""Alignment result types: CIGAR strings and alignment records.

These are the ``alignment_result`` payloads of the paper's unified interface
(Table III: EU output = ``[sus_output, alignment_result]``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Tuple

#: CIGAR operations: M consumes both sequences, I consumes only the query
#: (read), D consumes only the reference, S soft-clips query bases.
CIGAR_OPS = "MIDS"

_CIGAR_RE = re.compile(r"(\d+)([MIDS])")


@dataclass(frozen=True)
class Cigar:
    """A run-length encoded alignment path."""

    ops: Tuple[Tuple[int, str], ...]

    def __post_init__(self) -> None:
        for length, op in self.ops:
            if length <= 0:
                raise ValueError(f"CIGAR run length must be positive: {length}{op}")
            if op not in CIGAR_OPS:
                raise ValueError(f"unknown CIGAR op {op!r}")

    @classmethod
    def from_ops(cls, raw: Iterable[str]) -> "Cigar":
        """Build from a per-base op sequence, merging adjacent runs."""
        return cls.from_runs((1, op) for op in raw)

    @classmethod
    def from_runs(cls, raw: Iterable[Tuple[int, str]]) -> "Cigar":
        """Build from ``(length, op)`` runs, merging adjacent equal ops."""
        runs: List[Tuple[int, str]] = []
        for length, op in raw:
            if runs and runs[-1][1] == op:
                runs[-1] = (runs[-1][0] + length, op)
            else:
                runs.append((length, op))
        return cls(tuple(runs))

    @classmethod
    def parse(cls, text: str) -> "Cigar":
        """Parse a SAM-style CIGAR string like ``"45M2I54M"``."""
        if not text:
            return cls(())
        matched = _CIGAR_RE.findall(text)
        if "".join(f"{n}{op}" for n, op in matched) != text:
            raise ValueError(f"malformed CIGAR string {text!r}")
        return cls(tuple((int(n), op) for n, op in matched))

    def __str__(self) -> str:
        return "".join(f"{length}{op}" for length, op in self.ops)

    @property
    def query_length(self) -> int:
        """Read bases consumed (M + I + S)."""
        return sum(length for length, op in self.ops if op in "MIS")

    @property
    def reference_length(self) -> int:
        """Reference bases consumed (M + D)."""
        return sum(length for length, op in self.ops if op in "MD")

    @property
    def aligned_length(self) -> int:
        """M bases only."""
        return sum(length for length, op in self.ops if op == "M")

    @property
    def edit_ops(self) -> int:
        """Inserted + deleted bases (gap size total)."""
        return sum(length for length, op in self.ops if op in "ID")


@dataclass(frozen=True)
class Alignment:
    """A scored alignment of a read region to a reference region.

    Attributes:
        score: alignment score under the scoring scheme used.
        cigar: the alignment path.
        read_start / read_end: half-open aligned span on the read.
        ref_start / ref_end: half-open aligned span on the reference
            (linear coordinates).
        reverse: True when the read aligned as its reverse complement.
        cells: DP cells computed to produce this alignment — the
            compute-work statistic the EU cycle model consumes.  A
            pipeline hit reports its full read × window count, even where
            seed extension filled only the flanks.
    """

    score: int
    cigar: Cigar
    read_start: int
    read_end: int
    ref_start: int
    ref_end: int
    reverse: bool = False
    cells: int = 0

    def __post_init__(self) -> None:
        if self.read_end < self.read_start:
            raise ValueError("read_end before read_start")
        if self.ref_end < self.ref_start:
            raise ValueError("ref_end before ref_start")

    @property
    def read_span(self) -> int:
        return self.read_end - self.read_start

    @property
    def ref_span(self) -> int:
        return self.ref_end - self.ref_start

    def validate_against(self, read_len: int) -> None:
        """Consistency check: CIGAR spans must match coordinate spans."""
        if self.cigar.ops:
            if self.cigar.query_length != self.read_span:
                raise ValueError(
                    f"CIGAR consumes {self.cigar.query_length} read bases "
                    f"but span is {self.read_span}")
            if self.cigar.reference_length != self.ref_span:
                raise ValueError(
                    f"CIGAR consumes {self.cigar.reference_length} ref bases "
                    f"but span is {self.ref_span}")
        if self.read_end > read_len:
            raise ValueError(
                f"read_end {self.read_end} beyond read length {read_len}")


def identity(alignment: Alignment) -> float:
    """Fraction of aligned (M) columns among all alignment columns."""
    total = sum(length for length, _ in alignment.cigar.ops)
    if total == 0:
        return 0.0
    return alignment.cigar.aligned_length / total
