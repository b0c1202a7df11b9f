"""Seeding Scheduler and Extension Scheduler tests."""

import pytest

from repro.core.extension_scheduler import AllocateTrigger, HybridUnitsManager
from repro.core.coordinator import Placement
from repro.core.seeding_scheduler import SeedingScheduler
from repro.core.workload import HitTask
from repro.hw.extension_unit import ExtensionUnit
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


class TestHybridUnitsManager:
    def _units(self):
        return [ExtensionUnit(unit_id=i, pe_count=pe)
                for i, pe in enumerate([16, 16, 64])]

    def test_idle_census(self):
        manager = HybridUnitsManager(self._units())
        assert manager.idle_units() == {0: 16, 1: 16, 2: 64}

    def test_dispatch_starts_units(self):
        manager = HybridUnitsManager(self._units())
        task = HitTask(read_idx=0, hit_idx=0, query_len=10, ref_len=18)
        placement = Placement(hit=task, unit_id=0, pe_count=16, optimal=True)
        finish_times = manager.dispatch([placement], now=100)
        assert finish_times[0] > 100
        assert manager.idle_units() == {1: 16, 2: 64}

    def test_dispatch_wrong_pe_count_raises(self):
        manager = HybridUnitsManager(self._units())
        task = HitTask(read_idx=0, hit_idx=0, query_len=10, ref_len=18)
        bad = Placement(hit=task, unit_id=0, pe_count=64, optimal=False)
        with pytest.raises(ValueError):
            manager.dispatch([bad], now=0)

    def test_dispatch_unknown_unit_raises(self):
        manager = HybridUnitsManager(self._units())
        task = HitTask(read_idx=0, hit_idx=0, query_len=10, ref_len=18)
        ghost = Placement(hit=task, unit_id=99, pe_count=16, optimal=True)
        with pytest.raises(KeyError):
            manager.dispatch([ghost], now=0)

    def test_unit_lookup(self):
        manager = HybridUnitsManager(self._units())
        assert manager.unit(2).pe_count == 64
        with pytest.raises(KeyError):
            manager.unit(42)

    def test_duplicate_ids_rejected(self):
        units = [ExtensionUnit(unit_id=0, pe_count=16),
                 ExtensionUnit(unit_id=0, pe_count=32)]
        with pytest.raises(ValueError):
            HybridUnitsManager(units)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            HybridUnitsManager([])
