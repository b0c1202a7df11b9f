"""SU and EU cycle-model tests."""

import pytest

from repro.core.interface import UnitState
from repro.core.workload import HitTask, ReadTask
from repro.extension.systolic import gact_tiled_latency, matrix_fill_latency
from repro.hw.extension_unit import GACT_TILE_SIZE, ExtensionUnit
from repro.hw.seeding_unit import SeedingUnit
from repro.sim.memory import MemoryModel


def read_task(accesses=100):
    return ReadTask(read_idx=0, seeding_accesses=accesses)


class TestSeedingUnit:
    def _su(self, **kw):
        return SeedingUnit(unit_id=0, memory=MemoryModel(), **kw)

    def test_duration_scales_with_accesses(self):
        su = self._su()
        assert su.duration(read_task(1000)) > su.duration(read_task(100))

    def test_sram_resident_cost_is_linear(self):
        su = self._su(sram_miss_rate=0.0)
        d100 = su.duration(read_task(100))
        d200 = su.duration(read_task(200))
        assert d200 - d100 == 100  # 1 cycle per access

    def test_misses_add_dram_latency(self):
        hot = self._su(sram_miss_rate=0.0)
        cold = self._su(sram_miss_rate=1.0)
        assert cold.duration(read_task(100)) > hot.duration(read_task(100))

    def test_state_machine(self):
        su = self._su()
        assert su.idle
        finish = su.start(read_task(), now=10)
        assert su.state is UnitState.BUSY
        assert finish > 10
        with pytest.raises(RuntimeError):
            su.start(read_task(), now=20)
        su.finish()
        assert su.idle

    def test_finish_when_idle_raises(self):
        with pytest.raises(RuntimeError):
            self._su().finish()

    def test_stop_control(self):
        su = self._su()
        su.stop()
        assert su.state is UnitState.STOP
        assert not su.idle

    def test_stop_busy_raises(self):
        su = self._su()
        su.start(read_task(), now=0)
        with pytest.raises(RuntimeError):
            su.stop()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            self._su(sram_miss_rate=1.5)
        with pytest.raises(ValueError):
            self._su(cycles_per_access=0)


class TestExtensionUnit:
    def _hit(self, q, r=None):
        return HitTask(read_idx=0, hit_idx=0, query_len=q, ref_len=r or q + 8)

    def test_duration_matches_formula3(self):
        eu = ExtensionUnit(unit_id=0, pe_count=16, load_overhead=2)
        hit = self._hit(10)
        assert eu.duration(hit) == 2 + matrix_fill_latency(18, 10, 16)

    def test_matched_unit_is_faster(self):
        small = ExtensionUnit(unit_id=0, pe_count=16)
        big = ExtensionUnit(unit_id=1, pe_count=128)
        short_hit = self._hit(8)
        assert small.duration(short_hit) < big.duration(short_hit)

    def test_gact_for_long_windows(self):
        eu = ExtensionUnit(unit_id=0, pe_count=64, load_overhead=0)
        long_hit = self._hit(900, 900)
        assert long_hit.ref_len > GACT_TILE_SIZE
        assert eu.duration(long_hit) == gact_tiled_latency(
            900, 900, 64, tile_size=GACT_TILE_SIZE)

    def test_state_machine_and_bookkeeping(self):
        eu = ExtensionUnit(unit_id=0, pe_count=16)
        hit = self._hit(10)
        finish = eu.start(hit, now=5)
        assert finish == 5 + eu.duration(hit)
        assert eu.state is UnitState.BUSY
        with pytest.raises(RuntimeError):
            eu.start(hit, now=6)
        returned = eu.finish()
        assert returned is hit
        assert eu.busy_cycles == eu.duration(hit)
        assert eu.useful_cells == hit.query_len * hit.ref_len

    def test_finish_idle_raises(self):
        with pytest.raises(RuntimeError):
            ExtensionUnit(unit_id=0, pe_count=16).finish()

    def test_invalid_pe_count(self):
        with pytest.raises(ValueError):
            ExtensionUnit(unit_id=0, pe_count=0)
