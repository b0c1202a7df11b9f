"""simulate_many: parallel config sweeps match the serial loop exactly."""

from dataclasses import replace

import pytest

from repro.core.accelerator import NvWaAccelerator
from repro.core.config import NvWaConfig
from repro.core.workload import synthetic_workload
from repro.experiments.common import execution, resolve_execution
from repro.genome.datasets import get_dataset
from repro.runtime.sweep import SweepResult, sim_jobs, simulate_many


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(get_dataset("H.s."), 250, seed=13)


@pytest.fixture(scope="module")
def configs():
    base = NvWaConfig()
    return [replace(base, hits_buffer_depth=depth)
            for depth in (64, 256, 1024, 4096)]


class TestSimulateMany:
    def test_serial_matches_direct_runs(self, workload, configs):
        results = simulate_many(sim_jobs(configs, workload))
        assert len(results) == len(configs)
        for config, result in zip(configs, results):
            report = NvWaAccelerator(config).run(workload)
            assert result.cycles == report.cycles
            assert result.kreads_per_second == \
                report.throughput.kreads_per_second
            assert result.su_utilization == report.su_utilization
            assert result.eu_utilization == report.eu_utilization
            assert result.eu_pe_efficiency == report.eu_pe_efficiency

    def test_parallel_matches_serial(self, workload, configs):
        serial = simulate_many(sim_jobs(configs, workload), parallelism=1)
        parallel = simulate_many(sim_jobs(configs, workload), parallelism=3)
        assert serial == parallel  # SweepResult is a frozen dataclass

    def test_order_preserved(self, workload, configs):
        results = simulate_many(sim_jobs(configs, workload), parallelism=2)
        direct = [NvWaAccelerator(c).run(workload).cycles for c in configs]
        assert [r.cycles for r in results] == direct

    def test_empty_jobs(self):
        assert simulate_many([]) == []
        assert simulate_many([], parallelism=4) == []

    def test_result_type(self, workload, configs):
        results = simulate_many(sim_jobs(configs[:1], workload))
        assert isinstance(results[0], SweepResult)
        assert results[0].reads == len(workload)


class TestExecutionPolicy:
    def test_default_is_serial(self):
        assert resolve_execution(None) == 1

    def test_context_manager_scopes(self):
        with execution(2) as active:
            assert active == 2
            assert resolve_execution(None) == 2
        assert resolve_execution(None) == 1

    def test_set_and_restore(self):
        with execution(3):
            with pytest.raises(RuntimeError):
                with execution(5):
                    raise RuntimeError("experiment failed")
            assert resolve_execution(None) == 3
        assert resolve_execution(None) == 1

    def test_none_resets_to_serial(self):
        with execution(5):
            with execution(None) as active:
                assert active == 1
                assert resolve_execution(None) == 1

    def test_resolve_explicit_wins(self):
        with execution(2):
            assert resolve_execution(7) == 7
            assert resolve_execution(None) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            with execution(0):
                pass
        assert resolve_execution(None) == 1


class TestExperimentParity:
    """Experiments produce identical rows for any worker count."""

    def test_fig13_quick_parity(self):
        from repro.experiments import fig13_dse
        kwargs = dict(reads=120, depths=(64, 1024), interval_counts=(1, 4),
                      switch_thresholds=(0.75,), idle_fractions=(0.15,))
        serial = fig13_dse.run(**kwargs)
        parallel = fig13_dse.run(**kwargs, parallelism=2)
        assert serial.rows == parallel.rows

    def test_fig11_quick_parity(self):
        from repro.experiments import fig11_throughput
        serial = fig11_throughput.run(reads=150)
        parallel = fig11_throughput.run(reads=150, parallelism=2)
        assert serial.rows == parallel.rows

    def test_runner_flags(self, tmp_path):
        from repro.cli import main
        csv_dir = tmp_path / "csv"
        code = main(["experiments", "fig13", "--quick", "--parallelism", "2",
                     "--csv-dir", str(csv_dir)])
        assert code == 0
        assert (csv_dir / "fig13.csv").exists()
        # The ambient worker count was restored after the run.
        assert resolve_execution(None) == 1
