"""ShardedRunner determinism: results are a function of the shard plan,
never of the worker count.

The headline contract (the acceptance test of the runtime layer): a
1-worker and a 4-worker run produce identical aggregate cycle counts,
identical merged counters/utilizations, and — for the alignment front-end
— identical sorted SAM records.
"""

import io

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.align.sam import parse_sam, write_sam
from repro.core import baseline
from repro.core.accelerator import NvWaAccelerator
from repro.core.workload import Workload, synthetic_workload
from repro.genome.datasets import get_dataset
from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.runtime.sharded import (
    DEFAULT_SHARD_SIZE,
    ShardPlan,
    ShardedRunner,
    default_parallelism,
)
from tests.align.test_extension_oracle import contract, observed, oracle


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(get_dataset("H.s."), 600, seed=9)


class TestShardPlan:
    def test_exact_division(self):
        plan = ShardPlan(total=512, shard_size=256)
        assert plan.num_shards == 2
        assert plan.bounds() == [(0, 256), (256, 512)]

    def test_ragged_tail(self):
        plan = ShardPlan(total=600, shard_size=256)
        assert plan.num_shards == 3
        assert plan.bounds() == [(0, 256), (256, 512), (512, 600)]

    def test_empty(self):
        plan = ShardPlan(total=0)
        assert plan.num_shards == 0
        assert plan.bounds() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(total=-1)
        with pytest.raises(ValueError):
            ShardPlan(total=10, shard_size=0)

    def test_plan_covers_everything_once(self):
        plan = ShardPlan(total=1000, shard_size=77)
        seen = [i for start, end in plan.bounds()
                for i in range(start, end)]
        assert seen == list(range(1000))

    def test_default_shard_size(self):
        assert ShardPlan(total=10).shard_size == DEFAULT_SHARD_SIZE


class TestSimulationDeterminism:
    def test_one_vs_four_workers_identical(self, workload):
        """The PR's acceptance criterion, verbatim."""
        serial = ShardedRunner(parallelism=1, shard_size=128).run(workload)
        parallel = ShardedRunner(parallelism=4, shard_size=128).run(workload)
        assert serial.cycles == parallel.cycles
        assert serial.shard_cycles == parallel.shard_cycles
        assert serial.reads == parallel.reads == len(workload)
        assert serial.hits_processed == parallel.hits_processed
        assert serial.counters.as_dict() == parallel.counters.as_dict()
        assert serial.su_utilization == parallel.su_utilization
        assert serial.eu_utilization == parallel.eu_utilization
        assert serial.eu_pe_efficiency == parallel.eu_pe_efficiency
        assert serial.memory_energy_pj == parallel.memory_energy_pj
        assert serial.memory_bandwidth_utilization == \
            parallel.memory_bandwidth_utilization

    def test_worker_count_sweep(self, workload):
        reference = ShardedRunner(parallelism=1, shard_size=200).run(workload)
        for workers in (2, 3):
            report = ShardedRunner(parallelism=workers,
                                   shard_size=200).run(workload)
            assert report.cycles == reference.cycles
            assert report.shard_cycles == reference.shard_cycles

    def test_single_shard_equals_classic_run(self, workload):
        """shard_size >= len(workload): identical to one Engine run."""
        runner = ShardedRunner(shard_size=len(workload))
        sharded = runner.run(workload)
        classic = NvWaAccelerator(runner.config).run(workload)
        assert sharded.shards == 1
        assert sharded.cycles == classic.cycles
        assert sharded.hits_processed == classic.hits_processed
        assert sharded.su_utilization == classic.su_utilization
        assert sharded.eu_utilization == classic.eu_utilization
        assert sharded.counters.as_dict() == classic.counters.as_dict()

    def test_custom_config_respected(self, workload):
        config = baseline.sus_eus_baseline()
        report = ShardedRunner(config=config, shard_size=300).run(workload)
        assert report.config is config
        baseline_1shard = NvWaAccelerator(config).run(
            Workload(workload.tasks[:300]))
        assert report.shard_cycles[0] == baseline_1shard.cycles

    def test_throughput_property(self, workload):
        report = ShardedRunner(shard_size=128).run(workload)
        assert report.throughput.reads == len(workload)
        assert report.throughput.cycles == report.cycles
        assert report.eu_effective_utilization == pytest.approx(
            report.eu_utilization * report.eu_pe_efficiency)

    def test_shard_size_is_part_of_identity(self, workload):
        """Different plans may produce different totals — that's the
        documented semantics (drain between shards), not a bug."""
        a = ShardedRunner(shard_size=100).run(workload)
        b = ShardedRunner(shard_size=100, parallelism=2).run(workload)
        assert a.cycles == b.cycles  # plan equal -> cycles equal

    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            ShardedRunner(parallelism=0)
        with pytest.raises(ValueError):
            ShardedRunner(shard_size=-5)

    def test_default_parallelism_positive(self):
        assert default_parallelism() >= 1


class TestAlignmentDeterminism:
    @pytest.fixture(scope="class")
    def substrate(self):
        reference = SyntheticReference(length=30_000, chromosomes=1,
                                       seed=21).build()
        reads = ReadSimulator(reference, read_length=101,
                              seed=22).simulate(90)
        return reference, reads

    @staticmethod
    def sam_text(reference, results):
        buffer = io.StringIO()
        write_sam(results, reference, buffer)
        return buffer.getvalue()

    def test_sam_identical_across_worker_counts(self, substrate):
        reference, reads = substrate
        serial = ShardedRunner(parallelism=1, shard_size=30).align(
            reference, reads)
        parallel = ShardedRunner(parallelism=4, shard_size=30).align(
            reference, reads)
        text_serial = self.sam_text(reference, serial)
        text_parallel = self.sam_text(reference, parallel)
        assert text_serial == text_parallel
        records_serial = sorted(
            (r.qname, r.flag, r.rname, r.pos, r.cigar)
            for r in parse_sam(io.StringIO(text_serial)))
        records_parallel = sorted(
            (r.qname, r.flag, r.rname, r.pos, r.cigar)
            for r in parse_sam(io.StringIO(text_parallel)))
        assert records_serial == records_parallel

    def test_batched_extension_matches_serial(self, substrate):
        """Sharded workers extend through the batch kernel; a 2-worker
        run must match the in-process aligner exactly, and one
        full-window ``smith_waterman`` per hit on score, start and
        strand."""
        reference, reads = substrate
        aligner = SoftwareAligner(reference)
        serial = [oracle(aligner, read, idx) for idx, read in enumerate(reads)]
        batched = ShardedRunner(parallelism=2, shard_size=30).align(
            reference, reads)
        assert [observed(r) for r in batched] == \
            [observed(r) for r in aligner.align_all(reads)]
        assert [contract(observed(r)) for r in batched] == \
            [contract(entry) for entry in serial]

    def test_spawn_workers_given_a_queried_index(self, substrate):
        """Spawned workers unpickle the caller's index from the pool
        initializer; one that has already served queries must survive
        the trip and align byte-identically to a serial run."""
        from repro.seeding.bidirectional import BidirectionalFMIndex
        from repro.seeding.smem import find_smems

        reference, reads = substrate
        index = BidirectionalFMIndex(reference.concatenated(), occ_interval=128)
        find_smems(index, reads[0].sequence)
        kwargs = {"index": index}
        serial = ShardedRunner(parallelism=1, shard_size=30).align(
            reference, reads, aligner_kwargs=kwargs)
        spawned = ShardedRunner(parallelism=2, shard_size=30,
                                mp_context="spawn").align(
            reference, reads, aligner_kwargs=kwargs)
        assert self.sam_text(reference, spawned) == \
            self.sam_text(reference, serial)

    def test_global_read_indices_preserved(self, substrate):
        reference, reads = substrate
        results = ShardedRunner(parallelism=2, shard_size=25).align(
            reference, reads)
        assert len(results) == len(reads)
        for idx, result in enumerate(results):
            assert result.read is not None
            assert result.read.sequence == reads[idx].sequence


class TestWorkerDeathRecovery:
    """Satellite acceptance: a SIGKILLed worker replays only its lost
    shards and the merged output stays bit-identical."""

    @pytest.fixture(scope="class")
    def substrate(self):
        reference = SyntheticReference(length=20_000, chromosomes=1,
                                       seed=31).build()
        reads = ReadSimulator(reference, read_length=101,
                              seed=32).simulate(40)
        return reference, reads

    def _kill_plan(self, *calls):
        from repro.faults.plan import (SHARD_KILL, SITE_SHARD, FaultPlan,
                                       FaultSpec)
        return FaultPlan(seed=5, specs=(
            FaultSpec(SHARD_KILL, SITE_SHARD, at_calls=tuple(calls)),))

    def test_injected_kill_is_bit_identical(self, substrate):
        reference, reads = substrate
        undisturbed = ShardedRunner(parallelism=2, shard_size=10).align(
            reference, reads)
        injector = self._kill_plan(2).injector()
        survived = ShardedRunner(parallelism=2, shard_size=10,
                                 fault_injector=injector).align(
            reference, reads)
        assert injector.fired_counts() == {"shard_kill": 1}
        assert [r.read.read_id for r in survived] == \
            [r.read.read_id for r in undisturbed]
        buffer_a, buffer_b = io.StringIO(), io.StringIO()
        write_sam(undisturbed, reference, buffer_a)
        write_sam(survived, reference, buffer_b)
        assert buffer_a.getvalue() == buffer_b.getvalue()

    def test_simulation_survives_injected_kill(self, workload):
        from repro.core.config import NvWaConfig
        config = NvWaConfig()
        clean = ShardedRunner(config=config, parallelism=2,
                              shard_size=150).run(workload)
        injector = self._kill_plan(1).injector()
        recovered = ShardedRunner(config=config, parallelism=2,
                                  shard_size=150,
                                  fault_injector=injector).run(workload)
        assert recovered.cycles == clean.cycles
        assert recovered.shard_cycles == clean.shard_cycles
        assert recovered.counters.as_dict() == clean.counters.as_dict()

    def test_retries_exhausted_raises_worker_lost(self):
        from repro.runtime.sharded import (WorkerLostError,
                                           _simulate_shard_guarded,
                                           run_resilient)
        # retries=0 and an armed kill: the worker dies before touching
        # the payload, and no replay round exists to recover it.
        with pytest.raises(WorkerLostError, match="lost their worker"):
            run_resilient(_simulate_shard_guarded, payloads=[None],
                          parallelism=1, retries=0, kill_flags=[True])

    def test_validation(self):
        from repro.runtime.sharded import run_resilient
        with pytest.raises(ValueError, match="retries"):
            run_resilient(lambda p: p, [1], parallelism=1, retries=-1)
        with pytest.raises(ValueError, match="kill_flags"):
            run_resilient(lambda p: p, [1, 2], parallelism=1,
                          kill_flags=[True])
        with pytest.raises(ValueError, match="shard_retries"):
            ShardedRunner(shard_retries=-1)
