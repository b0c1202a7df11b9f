"""Integration tests for the full NvWa accelerator simulation."""

import pytest

from repro.core import baseline
from repro.core.accelerator import NvWaAccelerator
from repro.core.config import NvWaConfig
from repro.core.workload import synthetic_workload
from repro.genome.datasets import get_dataset


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(get_dataset("H.s."), 400, seed=11)


@pytest.fixture(scope="module")
def reports(workload):
    return {name: NvWaAccelerator(cfg).run(workload)
            for name, cfg in baseline.ablation_ladder().items()}


class TestConservation:
    def test_every_hit_processed(self, workload, reports):
        for name, report in reports.items():
            assert report.hits_processed == workload.total_hits, name

    def test_every_read_counted(self, workload, reports):
        for report in reports.values():
            assert report.reads == len(workload)
            assert report.counters.get("reads_issued") == len(workload)

    def test_simulation_terminates(self, reports):
        for report in reports.values():
            assert report.cycles > 0


class TestAblationShape:
    """The Fig 11 ladder: every mechanism must help, cumulatively."""

    def test_full_nvwa_fastest(self, reports):
        nvwa = reports["+HA (NvWa)"].cycles
        for name, report in reports.items():
            assert nvwa <= report.cycles, name

    def test_baseline_slowest(self, reports):
        base = reports["SUs+EUs"].cycles
        for name, report in reports.items():
            assert report.cycles <= base, name

    def test_monotone_ladder(self, reports):
        order = ["SUs+EUs", "+HUS", "+OCRA", "+HA (NvWa)"]
        cycles = [reports[n].cycles for n in order]
        assert cycles == sorted(cycles, reverse=True)

    def test_meaningful_total_speedup(self, reports):
        speedup = reports["SUs+EUs"].cycles / reports["+HA (NvWa)"].cycles
        assert speedup > 1.5


class TestUtilization:
    def test_ocra_improves_su_utilization(self, reports):
        """Fig 12(a) vs (b): one-cycle feeding vs Read-in-Batch."""
        assert reports["+HA (NvWa)"].su_utilization > \
            1.5 * reports["SUs+EUs"].su_utilization

    def test_hybrid_improves_pe_efficiency(self, reports):
        """Fig 12(c) vs (d): matched units waste fewer PE cycles."""
        assert reports["+HA (NvWa)"].eu_pe_efficiency > \
            1.5 * reports["SUs+EUs"].eu_pe_efficiency

    def test_utilizations_bounded(self, reports):
        for report in reports.values():
            assert 0.0 <= report.su_utilization <= 1.0
            assert 0.0 <= report.eu_utilization <= 1.0
            assert 0.0 <= report.eu_pe_efficiency <= 1.0


class TestAssignmentQuality:
    def test_nvwa_mostly_optimal(self, reports):
        """Fig 12(e): the Hits Allocator places most hits optimally."""
        assert reports["+HA (NvWa)"].assignment_quality.overall_fraction() \
            > 0.6

    def test_baseline_mostly_suboptimal(self, reports):
        """Fig 12(f): without scheduling only ~14.5% are optimal."""
        assert reports["SUs+EUs"].assignment_quality.overall_fraction() < 0.3

    def test_quality_recorded_for_each_class(self, reports):
        quality = reports["+HA (NvWa)"].assignment_quality
        for pe_class in (16, 32, 64, 128):
            assert quality.total.get(pe_class, 0) > 0


class TestDeterminism:
    def test_same_workload_same_cycles(self, workload):
        a = NvWaAccelerator(baseline.nvwa()).run(workload)
        b = NvWaAccelerator(baseline.nvwa()).run(workload)
        assert a.cycles == b.cycles
        assert a.hits_processed == b.hits_processed


class TestEdgeCases:
    def test_single_read(self):
        wl = synthetic_workload(get_dataset("H.s."), 1, seed=1)
        report = NvWaAccelerator(baseline.nvwa()).run(wl)
        assert report.hits_processed == wl.total_hits
        assert report.cycles > 0

    def test_tiny_buffer_still_terminates(self):
        wl = synthetic_workload(get_dataset("H.s."), 50, seed=2)
        config = baseline.nvwa(NvWaConfig(hits_buffer_depth=4,
                                          allocation_batch_size=4))
        report = NvWaAccelerator(config).run(wl)
        assert report.hits_processed == wl.total_hits

    def test_single_su_single_eu_class(self):
        wl = synthetic_workload(get_dataset("H.s."), 20, seed=3)
        config = NvWaConfig(num_seeding_units=1, eu_config=((64, 2),),
                            reference_classes=(64,))
        report = NvWaAccelerator(config).run(wl)
        assert report.hits_processed == wl.total_hits

    def test_max_cycles_cuts_run_short(self, workload):
        report = NvWaAccelerator(baseline.nvwa()).run(workload, max_cycles=50)
        assert report.cycles <= 50
        assert report.hits_processed < workload.total_hits

    def test_uniform_variant_runs_one_class(self):
        config = NvWaConfig().uniform_variant()
        wl = synthetic_workload(get_dataset("H.s."), 20, seed=4)
        report = NvWaAccelerator(config).run(wl)
        assert report.config.eu_config == ((64, 45),)
        assert report.assignment_quality.total
        assert report.hits_processed == wl.total_hits

    def test_memory_energy_accounted(self, reports):
        for report in reports.values():
            assert report.memory_energy_pj > 0


class TestSuspension:
    def test_small_buffer_causes_su_suspensions(self):
        """A congested Hits Buffer must back-pressure the SUs (blocking)."""
        wl = synthetic_workload(get_dataset("H.s."), 200, seed=5)
        config = baseline.nvwa(NvWaConfig(hits_buffer_depth=8,
                                          allocation_batch_size=8))
        report = NvWaAccelerator(config).run(wl)
        assert report.counters.get("su_suspensions") > 0
        assert report.hits_processed == wl.total_hits
