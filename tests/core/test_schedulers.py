"""Seeding Scheduler and Extension Scheduler tests."""

import pytest

from repro.core.extension_scheduler import AllocateTrigger
from repro.core.seeding_scheduler import SeedingScheduler
from repro.sim.spm import Scratchpad


class TestSeedingScheduler:
    def test_ocra_serves_idle_units(self):
        sched = SeedingScheduler(num_units=4, total_reads=10, use_ocra=True)
        loads = sched.schedule([0, 1, 0, 1])
        assert [(l.unit_id, l.read_idx) for l in loads] == [(0, 0), (2, 1)]

    def test_batch_mode_waits_for_all_idle(self):
        sched = SeedingScheduler(num_units=4, total_reads=10, use_ocra=False)
        assert sched.schedule([0, 1, 0, 0]) == ()
        loads = sched.schedule([0, 0, 0, 0])
        assert len(loads) == 4

    def test_prefetched_loads_cost_one_cycle(self):
        sched = SeedingScheduler(num_units=2, total_reads=10, use_ocra=True)
        loads = sched.schedule([0, 0])
        assert all(l.load_latency == sched.spm.read_latency for l in loads)

    def test_spm_keeps_prefetching(self):
        sched = SeedingScheduler(num_units=2, total_reads=100, use_ocra=True,
                                 prefetch_ahead=8)
        for _ in range(10):
            sched.schedule([0, 0])
        # SPM stays topped up as reads drain
        assert sched.spm.occupancy > 0
        assert sched.spm.stats.hit_rate == 1.0

    def test_unprefetched_read_pays_miss(self):
        spm = Scratchpad(capacity=1, miss_penalty=45)
        sched = SeedingScheduler(num_units=4, total_reads=10, use_ocra=True,
                                 spm=spm, prefetch_ahead=1)
        loads = sched.schedule([0, 0, 0, 0])
        latencies = sorted(l.load_latency for l in loads)
        assert latencies[0] == spm.read_latency
        assert latencies[-1] == 45

    def test_exhaustion(self):
        sched = SeedingScheduler(num_units=4, total_reads=3, use_ocra=True)
        loads = sched.schedule([0, 0, 0, 0])
        assert len(loads) == 3
        assert sched.exhausted
        assert sched.schedule([0, 0, 0, 0]) == ()

    def test_invalid_prefetch(self):
        with pytest.raises(ValueError):
            SeedingScheduler(2, 10, prefetch_ahead=0)


class TestAllocateTrigger:
    def test_threshold_15_percent_of_70(self):
        trigger = AllocateTrigger(num_units=70, idle_fraction=0.15)
        assert trigger.threshold == 11
        assert not trigger.should_request(10)
        assert trigger.should_request(11)

    def test_minimum_threshold_is_one(self):
        trigger = AllocateTrigger(num_units=4, idle_fraction=0.0)
        assert trigger.threshold == 1
        assert not trigger.should_request(0)

    def test_bounds_validated(self):
        trigger = AllocateTrigger(num_units=4)
        with pytest.raises(ValueError):
            trigger.should_request(5)
        with pytest.raises(ValueError):
            trigger.should_request(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AllocateTrigger(0)
        with pytest.raises(ValueError):
            AllocateTrigger(4, idle_fraction=1.5)
