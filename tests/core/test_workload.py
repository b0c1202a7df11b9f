"""Workload generation tests."""

import pytest

from repro.core.workload import (
    HitTask,
    ReadTask,
    Workload,
    hit_extension_span,
    synthetic_workload,
    workload_from_pipeline,
)
from repro.genome.datasets import get_dataset


class TestTypes:
    def test_hit_task_validation(self):
        with pytest.raises(ValueError):
            HitTask(0, 0, query_len=0, ref_len=5)
        with pytest.raises(ValueError):
            HitTask(0, 0, query_len=5, ref_len=0)

    def test_read_task_validation(self):
        with pytest.raises(ValueError):
            ReadTask(read_idx=0, seeding_accesses=-1)

    def test_hit_len_is_query_len(self):
        assert HitTask(0, 0, query_len=7, ref_len=20).hit_len == 7


class TestExtensionSpan:
    def test_full_chain_leaves_slack_only(self):
        assert hit_extension_span(100, 0, 100, slack=4) == 4

    def test_partial_chain(self):
        assert hit_extension_span(100, 10, 80, slack=4) == 10 + 20 + 4

    def test_minimum_one(self):
        assert hit_extension_span(100, 0, 100, slack=0) == 1

    def test_invalid_span_raises(self):
        with pytest.raises(ValueError):
            hit_extension_span(100, 50, 40)
        with pytest.raises(ValueError):
            hit_extension_span(100, 0, 101)


class TestSyntheticWorkload:
    def test_deterministic(self):
        profile = get_dataset("H.s.")
        a = synthetic_workload(profile, 50, seed=3)
        b = synthetic_workload(profile, 50, seed=3)
        assert [t.seeding_accesses for t in a.tasks] == \
            [t.seeding_accesses for t in b.tasks]
        assert a.hit_lengths() == b.hit_lengths()

    def test_read_count(self):
        wl = synthetic_workload(get_dataset("C.e."), 30, seed=1)
        assert len(wl) == 30

    def test_every_read_has_a_hit(self):
        wl = synthetic_workload(get_dataset("H.s."), 100, seed=2)
        assert all(len(t.hits) >= 1 for t in wl.tasks)

    def test_hit_count_near_profile_mean(self):
        profile = get_dataset("H.s.")
        wl = synthetic_workload(profile, 500, seed=4)
        mean = wl.total_hits / len(wl)
        assert abs(mean - profile.mean_hits_per_read) < 0.8

    def test_access_diversity(self):
        """Fig 2's point: per-read work varies widely."""
        wl = synthetic_workload(get_dataset("H.s."), 500, seed=6)
        accesses = [t.seeding_accesses for t in wl.tasks]
        assert max(accesses) > 2 * min(accesses)

    def test_invalid_params(self):
        profile = get_dataset("H.s.")
        with pytest.raises(ValueError):
            synthetic_workload(profile, 0)
        with pytest.raises(ValueError):
            synthetic_workload(profile, 10, mean_seeding_accesses=0)


class TestPipelineWorkload:
    def test_roundtrip_from_aligner(self):
        from repro.align.pipeline import SoftwareAligner
        from repro.genome.reads import ReadSimulator
        profile = get_dataset("H.s.")
        ref = profile.build_reference(seed=7, length=30_000)
        aligner = SoftwareAligner(ref, occ_interval=64)
        reads = ReadSimulator(ref, read_length=101, seed=8).simulate(10)
        results = aligner.align_all(reads)
        wl = workload_from_pipeline(results)
        assert len(wl) == 10
        for task, result in zip(wl.tasks, results):
            assert task.seeding_accesses == result.work.seeding_accesses
            assert len(task.hits) == len(result.hits)
        for length in wl.hit_lengths():
            assert 1 <= length <= 101 + 4
