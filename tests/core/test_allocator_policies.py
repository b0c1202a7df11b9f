"""Unit tests for the three Sec. IV-D allocation methods + ablation flags."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NvWaConfig
from repro.core.coordinator import (
    HitsAllocator,
    PooledAllocator,
    StrictClassAllocator,
    idle_heaps,
)
from repro.core.workload import HitTask


def hit(idx, length):
    return HitTask(read_idx=0, hit_idx=idx, query_len=length,
                   ref_len=length + 8)


class TestStrictClassAllocator:
    def test_optimal_only(self):
        allocator = StrictClassAllocator((16, 32, 64, 128))
        placements, deferred = allocator.allocate(
            [hit(0, 8), hit(1, 100)], idle_heaps({0: 16, 1: 128}))
        assert all(p.optimal for p in placements)
        assert not deferred

    def test_defers_when_optimal_class_busy(self):
        """Method (1)'s weakness: idle units of other classes go unused."""
        allocator = StrictClassAllocator((16, 32, 64, 128))
        placements, deferred = allocator.allocate(
            [hit(0, 8)], idle_heaps({5: 32, 6: 64, 7: 128}))
        assert not placements
        assert len(deferred) == 1

    def test_shortest_first(self):
        allocator = StrictClassAllocator((16, 32, 64, 128))
        placements, _ = allocator.allocate([hit(0, 15), hit(1, 2)],
                                           idle_heaps({0: 16}))
        assert placements[0].hit.hit_idx == 1

    def test_counters(self):
        allocator = StrictClassAllocator((16,))
        allocator.allocate([hit(0, 5), hit(1, 6)], idle_heaps({0: 16}))
        assert allocator.counters.get("allocated") == 1
        assert allocator.counters.get("deferred") == 1
        assert allocator.counters.get("optimal") == 1

    def test_empty_classes_raise(self):
        with pytest.raises(ValueError):
            StrictClassAllocator(())


class TestPolicyOrdering:
    """The structural relation between the three methods on one batch."""

    @given(st.lists(st.integers(1, 128), min_size=1, max_size=30),
           st.dictionaries(st.integers(0, 50),
                           st.sampled_from([16, 32, 64, 128]), max_size=16))
    @settings(max_examples=50)
    def test_property_allocation_counts_ordered(self, lengths, idle):
        """pooled places >= grouped places >= strict places, always —
        each method is strictly more permissive than the next."""
        batch = [hit(i, length) for i, length in enumerate(lengths)]
        classes = (16, 32, 64, 128)
        strict_n = len(StrictClassAllocator(classes).allocate(
            batch, idle_heaps(idle))[0])
        grouped_n = len(HitsAllocator(classes).allocate(
            batch, idle_heaps(idle))[0])
        pooled_n = len(PooledAllocator(classes).allocate(
            batch, idle_heaps(idle))[0])
        assert strict_n <= grouped_n <= pooled_n

    @given(st.lists(st.integers(1, 128), min_size=1, max_size=30),
           st.dictionaries(st.integers(0, 50),
                           st.sampled_from([16, 32, 64, 128]), max_size=16))
    @settings(max_examples=50)
    def test_property_strict_quality_is_total(self, lengths, idle):
        batch = [hit(i, length) for i, length in enumerate(lengths)]
        placements, _ = StrictClassAllocator((16, 32, 64, 128)).allocate(
            batch, idle_heaps(idle))
        assert all(p.optimal for p in placements)


class TestAblationFlags:
    def test_fragmentation_flag_conserves_hits(self):
        from dataclasses import replace
        from repro.core import NvWaAccelerator, baseline, synthetic_workload
        from repro.genome.datasets import get_dataset
        wl = synthetic_workload(get_dataset("H.s."), 120, seed=9)
        config = replace(baseline.nvwa(), fragmentation_handling=False)
        report = NvWaAccelerator(config).run(wl)
        assert report.hits_processed == wl.total_hits

    def test_prefetch_flag_slows_loads(self):
        from repro.core.seeding_scheduler import SeedingScheduler
        from repro.sim.spm import Scratchpad
        cold = SeedingScheduler(num_units=4, total_reads=20,
                                spm=Scratchpad(capacity=64, miss_penalty=45),
                                prefetch=False)
        loads = cold.schedule([0, 0, 0, 0])
        assert all(l.load_latency == 45 for l in loads)

    def test_invalid_policy_rejected(self):
        from repro.core.config import NvWaConfig
        with pytest.raises(ValueError):
            NvWaConfig(allocator_policy="greedy")


class TestPolicyDigests:
    """Every dispatch policy's modelled results, pinned.

    SHA-256 of the same fingerprint ``perfbench/sim.py`` pins (cycles,
    hits, sorted counters, utilisations, PE efficiency, assignment
    quality) on a small hybrid pool, where hits contend across classes so
    each policy's candidate order shows, plus FIFO on the uniform pool.
    """

    SMALL = NvWaConfig(num_seeding_units=8,
                       eu_config=((16, 3), (32, 2), (64, 2), (128, 1)),
                       hits_buffer_depth=32, allocation_batch_size=8)

    PINNED = {
        "grouped": "59d1d0846eee387bbe60ebcd22efb06a"
                   "00d15842d168d573225e2eb916169c2f",
        "pooled": "2ba9a0eeb4e2f83f91f444e467e478ea"
                  "038b61b3601300db6f8c3328f9269c26",
        "strict": "88aebb5dfed0add11c6ff00e92487f2d"
                  "38d5969f5288bff8782f598fcf0ce984",
        "fifo": "7272305c5513f502faa9720b772fac30"
                "f4c61a5279434ea400b1b50bb2d6001d",
        "fifo_uniform": "4e3bdf4f38ac40f9f860f490560c66e2"
                        "e418375fc436c88aecf219e59db223b7",
    }

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.core import NvWaAccelerator, synthetic_workload
        from repro.genome.datasets import get_dataset
        workload = synthetic_workload(get_dataset("H.s."), 120, seed=9)
        points = {policy: replace(self.SMALL, allocator_policy=policy)
                  for policy in ("grouped", "pooled", "strict", "fifo")}
        points["fifo_uniform"] = replace(self.SMALL.uniform_variant(),
                                         allocator_policy="fifo")
        return workload, {name: NvWaAccelerator(config).run(workload)
                          for name, config in points.items()}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest(self, reports, name):
        report = reports[1][name]
        fingerprint = (report.cycles, report.hits_processed,
                       tuple(sorted(report.counters.as_dict().items())),
                       report.su_utilization, report.eu_utilization,
                       report.eu_pe_efficiency,
                       report.assignment_quality.overall_fraction())
        digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()
        assert digest == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_conservation(self, reports, name):
        workload, report = reports[0], reports[1][name]
        counters = report.counters
        allocated = counters.get("alloc_allocated")
        assert allocated == report.hits_processed == workload.total_hits
        assert counters.get("alloc_optimal") \
            + counters.get("alloc_suboptimal") == allocated
        if name == "strict":
            assert counters.get("alloc_suboptimal") == 0
