"""Accuracy evaluation tests."""

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.analysis.accuracy import AccuracyReport, evaluate
from repro.genome.reads import ErrorModel, ReadSimulator
from repro.genome.reference import SyntheticReference


@pytest.fixture(scope="module")
def reference():
    return SyntheticReference(length=30_000, chromosomes=2, seed=71).build()


class TestEvaluate:
    def test_clean_reads_near_perfect(self, reference):
        aligner = SoftwareAligner(reference, occ_interval=64)
        sim = ReadSimulator(reference, read_length=80,
                            error_model=ErrorModel(0, 0, 0), seed=1)
        report = evaluate(aligner.align_all(sim.simulate(20)), reference)
        assert report.mapped_fraction >= 0.95
        assert report.precision >= 0.9
        assert report.f1 > 0.85

    def test_empty_batch(self, reference):
        report = evaluate([], reference)
        assert report.total == 0
        assert report.mapped_fraction == 0.0
        assert report.f1 == 0.0

    def test_tolerance_validation(self, reference):
        with pytest.raises(ValueError):
            evaluate([], reference, tolerance=-1)

    def test_report_arithmetic(self):
        report = AccuracyReport(total=10, mapped=8, locus_correct=6,
                                strand_correct=7, tolerance=100)
        assert report.mapped_fraction == pytest.approx(0.8)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.6)
        assert 0 < report.f1 < 1
