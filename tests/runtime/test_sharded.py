"""ShardedRunner determinism: alignment output is a function of the
reads alone, never of the worker count or the shard size.

The headline contract (the acceptance test of the runtime layer): a
1-worker and a 4-worker run produce identical SAM text, and a run that
lost a worker to an injected SIGKILL merges to the undisturbed output.
"""

import io

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.align.sam import parse_sam, write_sam
from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.runtime.sharded import (
    DEFAULT_SHARD_SIZE,
    ShardedRunner,
    WorkerLostError,
    run_resilient,
)
from tests.align.test_extension_oracle import contract, observed, oracle


def _echo(payload):
    """A plain module-level worker body for :func:`run_resilient`."""
    return payload


class TestShardBounds:
    """``align`` cuts the reads at ``range(0, len(reads), shard_size)``
    and makes one ``align_all`` call per shard, with the shard's global
    start index."""

    @pytest.fixture
    def calls(self, monkeypatch):
        recorded = []

        class RecordingAligner:
            def __init__(self, reference, **kwargs):
                pass

            def align_all(self, reads, start_index=0):
                recorded.append((start_index, len(reads)))
                return [start_index + offset for offset in range(len(reads))]

        monkeypatch.setattr("repro.align.pipeline.SoftwareAligner",
                            RecordingAligner)
        return recorded

    def test_exact_division(self, calls):
        results = ShardedRunner(shard_size=256).align(None, [None] * 512)
        assert calls == [(0, 256), (256, 256)]
        assert results == list(range(512))

    def test_ragged_tail(self, calls):
        results = ShardedRunner(shard_size=256).align(None, [None] * 600)
        assert calls == [(0, 256), (256, 256), (512, 88)]
        assert results == list(range(600))

    def test_empty(self, calls):
        assert ShardedRunner().align(None, []) == []
        assert calls == []

    def test_validation(self):
        with pytest.raises(ValueError, match="shard_size"):
            ShardedRunner(shard_size=0)

    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            ShardedRunner(parallelism=0)
        with pytest.raises(ValueError):
            ShardedRunner(shard_size=-5)

    def test_covers_every_read_once(self, calls):
        results = ShardedRunner(shard_size=77).align(None, [None] * 1000)
        seen = [i for start, size in calls for i in range(start, start + size)]
        assert seen == list(range(1000))
        assert results == seen

    def test_default_shard_size(self):
        assert ShardedRunner().shard_size == DEFAULT_SHARD_SIZE


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

    def test_retries_exhausted_raises_worker_lost(self):
        # retries=0 and an armed kill: the worker dies before touching
        # the payload, and no replay round exists to recover it.
        with pytest.raises(WorkerLostError, match="lost their worker"):
            run_resilient(_echo, payloads=[None], parallelism=1,
                          retries=0, kill_flags=[True])

    def test_killed_payload_replays_plain_worker(self):
        """The trampoline arms the kill on the first round only, so the
        replay returns what an undisturbed run returns, in order."""
        assert run_resilient(_echo, payloads=[10, 11, 12], parallelism=2,
                             retries=1, kill_flags=[False, True, False]) \
            == [10, 11, 12]

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            run_resilient(lambda p: p, [1], parallelism=1, retries=-1)
        with pytest.raises(ValueError, match="kill_flags"):
            run_resilient(lambda p: p, [1, 2], parallelism=1,
                          kill_flags=[True])
        with pytest.raises(ValueError, match="shard_retries"):
            ShardedRunner(shard_retries=-1)
