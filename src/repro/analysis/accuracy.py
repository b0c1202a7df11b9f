"""Alignment accuracy evaluation against simulation ground truth.

The paper's "no loss of accuracy" claim is structural (the accelerator
executes the standard software's work); this module makes accuracy
*measurable* for the repro pipelines: mapped fraction, locus/strand
correctness against the read simulator's known origins, and the
precision/recall view used when comparing configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.genome.reference import ReferenceGenome


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregate accuracy over a batch of alignments."""

    total: int
    mapped: int
    locus_correct: int
    strand_correct: int
    tolerance: int

    @property
    def mapped_fraction(self) -> float:
        return self.mapped / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        """Correct-locus fraction among mapped reads."""
        return self.locus_correct / self.mapped if self.mapped else 0.0

    @property
    def recall(self) -> float:
        """Correct-locus fraction among all reads."""
        return self.locus_correct / self.total if self.total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def _true_linear_start(reference: ReferenceGenome, read) -> Optional[int]:
    if read.chrom is None or read.position is None:
        return None
    return reference.offsets[read.chrom] + read.position


def evaluate(results: Sequence, reference: ReferenceGenome,
             tolerance: int = 150) -> AccuracyReport:
    """Score pipeline results against the simulator's ground truth.

    Takes :class:`ReadAlignment` results, or anything else that exposes
    ``read``, ``best`` and ``aligned``. Reads without ground truth (real
    data) only count toward the mapped fraction.

    Args:
        tolerance: maximum distance (bp) between the reported and true
            leftmost reference coordinate to count as locus-correct.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    total = len(results)
    mapped = locus = strand = 0
    for result in results:
        if not result.aligned:
            continue
        mapped += 1
        truth = _true_linear_start(reference, result.read)
        if truth is None:
            continue
        if result.best.reverse == result.read.reverse:
            strand += 1
        if abs(result.best.ref_start - truth) <= tolerance:
            locus += 1
    return AccuracyReport(total=total, mapped=mapped, locus_correct=locus,
                          strand_correct=strand, tolerance=tolerance)
