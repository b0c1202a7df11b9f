"""The paper's headline functional claim, verified hit by hit.

"the computing units of NvWa are faithful to the standard read alignment
software, which allows us to have no loss of accuracy." With functional
execution enabled, the accelerator's EUs run a full-window
``smith_waterman`` over each hit's read and window.  The software
pipeline does not: it extends only the flanks of the chain's longest
seed.  So the EU scores are checked against a full-window oracle over
the pipeline's hits, and each read's best EU score must reach the
pipeline's best, under every scheduling configuration (scheduling
reorders work; it must never change results).  One hit-length
definition for the software and the EU is the ROADMAP item "One hit
record from read to EU".
"""

from dataclasses import replace

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.core import NvWaAccelerator, baseline, workload_from_pipeline
from repro.extension.smith_waterman import smith_waterman
from repro.genome import sequence as seq
from repro.genome.reads import ErrorModel, ReadSimulator
from repro.genome.reference import SyntheticReference

pytestmark = [pytest.mark.integration, pytest.mark.slow]



@pytest.fixture(scope="module")
def setup():
    reference = SyntheticReference(length=40_000, chromosomes=2,
                                   seed=101).build()
    aligner = SoftwareAligner(reference, occ_interval=64)
    reads = (ReadSimulator(reference, read_length=101, seed=1).simulate(15)
             + ReadSimulator(reference, read_length=101, seed=2,
                             error_model=ErrorModel(0.02, 0.002, 0.002),
                             ).simulate(15))
    results = aligner.align_all(reads)
    workload = workload_from_pipeline(results,
                                      reference_text=aligner.text)
    return aligner, results, workload


def pipeline_hit_scores(aligner, results):
    """Per-(read, hit) scores as the software pipeline computes them."""
    scores = {}
    for idx, result in enumerate(results):
        for hit in result.hits:
            oriented = (seq.reverse_complement(result.read.sequence)
                        if hit.reverse else result.read.sequence)
            window = aligner.text[hit.ref_start:hit.ref_end]
            scores[(idx, hit.hit_idx)] = smith_waterman(
                oriented, window, scoring=aligner.scoring).score
    return scores


class TestNoLossOfAccuracy:
    def test_sequences_attached(self, setup):
        _, _, workload = setup
        assert all(h.has_sequences
                   for t in workload.tasks for h in t.hits)

    def test_scores_match_pipeline_exactly(self, setup):
        aligner, results, workload = setup
        expected = pipeline_hit_scores(aligner, results)
        config = replace(baseline.nvwa(), functional_execution=True)
        report = NvWaAccelerator(config).run(workload)
        assert report.extension_results is not None
        assert set(report.extension_results) == set(expected)
        for key, output in report.extension_results.items():
            assert output.score == expected[key], key

    def test_invariant_under_scheduling(self, setup):
        """Every scheduling configuration produces identical results —
        the schedulers reorder work but never change it."""
        _, _, workload = setup
        outputs = []
        for config in baseline.ablation_ladder().values():
            config = replace(config, functional_execution=True)
            report = NvWaAccelerator(config).run(workload)
            outputs.append({k: (v.score, v.cigar)
                            for k, v in report.extension_results.items()})
        first = outputs[0]
        for other in outputs[1:]:
            assert other == first

    def test_best_per_read_matches_pipeline_best(self, setup):
        aligner, results, workload = setup
        config = replace(baseline.nvwa(), functional_execution=True)
        report = NvWaAccelerator(config).run(workload)
        for idx, result in enumerate(results):
            if not result.hits:
                continue
            accel_best = max(
                report.extension_results[(idx, h.hit_idx)].score
                for h in result.hits)
            pipeline_best = result.best.score if result.aligned else 0
            assert accel_best >= pipeline_best

    def test_disabled_by_default(self, setup):
        _, _, workload = setup
        report = NvWaAccelerator(baseline.nvwa()).run(workload)
        assert report.extension_results is None

    def test_mixed_payloads_validated(self):
        from repro.core.workload import HitTask
        with pytest.raises(ValueError):
            HitTask(0, 0, 10, 10, query_seq="ACGT", ref_seq=None)
