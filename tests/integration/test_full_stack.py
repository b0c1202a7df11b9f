"""Cross-stack integration tests: genome → align → workload → accelerator
→ SAM, plus the structural "no loss of accuracy" property."""

import io

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.align.sam import write_sam
from repro.analysis.accuracy import evaluate
from repro.core import NvWaAccelerator, baseline, workload_from_pipeline
from repro.genome.reads import ErrorModel, ReadSimulator
from repro.genome.reference import SyntheticReference

pytestmark = [pytest.mark.integration, pytest.mark.slow]



@pytest.fixture(scope="module")
def stack():
    reference = SyntheticReference(length=40_000, chromosomes=2,
                                   seed=81).build()
    aligner = SoftwareAligner(reference, occ_interval=64)
    clean = ReadSimulator(reference, read_length=101, seed=1).simulate(25)
    noisy = ReadSimulator(reference, read_length=101, seed=2,
                          error_model=ErrorModel(0.02, 0.002, 0.002),
                          ).simulate(25)
    results = aligner.align_all(clean + noisy)
    return reference, results


class TestEndToEnd:
    def test_alignment_accuracy(self, stack):
        reference, results = stack
        report = evaluate(results, reference)
        assert report.mapped_fraction > 0.9
        assert report.precision > 0.85

    def test_workload_matches_pipeline(self, stack):
        _, results = stack
        workload = workload_from_pipeline(results)
        assert len(workload) == len(results)
        assert workload.total_hits == sum(len(r.hits) for r in results)

    def test_accelerator_processes_exactly_the_pipeline_work(self, stack):
        """Structural no-loss-of-accuracy: the accelerator consumes exactly
        the hit set the software pipeline produced — nothing dropped,
        nothing invented — under every scheduling configuration."""
        _, results = stack
        workload = workload_from_pipeline(results)
        for name, config in baseline.ablation_ladder().items():
            report = NvWaAccelerator(config).run(workload)
            assert report.hits_processed == workload.total_hits, name
            assert report.reads == len(results), name

    def test_sam_export(self, stack):
        reference, results = stack
        buffer = io.StringIO()
        mapped = write_sam(results, reference, buffer)
        body = [l for l in buffer.getvalue().strip().split("\n")
                if not l.startswith("@")]
        assert len(body) == len(results)
        assert mapped >= 45

    def test_determinism_across_runs(self, stack):
        reference, results = stack
        workload = workload_from_pipeline(results)
        a = NvWaAccelerator(baseline.nvwa()).run(workload)
        b = NvWaAccelerator(baseline.nvwa()).run(workload)
        assert (a.cycles, a.hits_processed) == (b.cycles, b.hits_processed)
        assert a.counters.as_dict() == b.counters.as_dict()


class TestCrossComponentConsistency:
    def test_hash_and_fm_index_agree_on_kmer_counts(self, stack):
        """FM-index counts equal a brute-force overlapping scan of the
        text (the referee that replaced the deleted k-mer hash index)."""
        reference, _ = stack
        from repro.seeding.fmindex import FMIndex
        text = reference.concatenated()[:5000]
        fm = FMIndex(text, occ_interval=64)

        def brute_count(kmer):
            return sum(text.startswith(kmer, i)
                       for i in range(len(text) - len(kmer) + 1))

        import random
        rng = random.Random(3)
        for _ in range(20):
            start = rng.randrange(0, len(text) - 10)
            kmer = text[start:start + 10]
            assert fm.count(kmer) == brute_count(kmer)

    def test_sw_score_at_least_edit_bound(self, stack):
        """Cross-check SW against the bit-parallel edit distance: a read
        at distance d from a window scores >= matches - penalties bound."""
        reference, results = stack
        from repro.extension.bitap import best_semi_global_distance
        for result in results[:5]:
            if not result.aligned or result.best.reverse:
                continue
            window = reference.concatenated()[
                result.best.ref_start:result.best.ref_end + 20]
            d = best_semi_global_distance(result.read.sequence, window)
            # each of the d errors costs at most match+|mismatch| = 5
            assert result.best.score >= len(result.read.sequence) - 5 * d
