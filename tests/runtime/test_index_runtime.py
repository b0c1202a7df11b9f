"""Index store threaded through the sharded runner and the service."""

import pytest

from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.seeding.store import build_index_store


@pytest.fixture(scope="module")
def reference():
    return SyntheticReference(length=8_000, chromosomes=2, seed=13).build()


class TestShardedIndexPath:
    def test_parallel_align_with_index_matches_serial(self, tmp_path,
                                                      reference):
        from repro.align.pipeline import SoftwareAligner
        from repro.align.sam import sam_record
        from repro.runtime.sharded import ShardedRunner

        store = build_index_store(reference, tmp_path / "ref.idx")
        reads = ReadSimulator(reference, read_length=80,
                              seed=2).simulate(24)
        serial = SoftwareAligner(reference).align_all(reads)
        runner = ShardedRunner(parallelism=2, shard_size=8)
        sharded = runner.align(reference, reads, index_path=store.path)
        assert ([sam_record(r, reference) for r in sharded]
                == [sam_record(r, reference) for r in serial])

    def test_serial_path_accepts_index_path(self, tmp_path, reference):
        from repro.align.pipeline import SoftwareAligner
        from repro.align.sam import sam_record
        from repro.runtime.sharded import ShardedRunner

        store = build_index_store(reference, tmp_path / "ref.idx")
        reads = ReadSimulator(reference, read_length=80,
                              seed=2).simulate(6)
        plain = SoftwareAligner(reference).align_all(reads)
        runner = ShardedRunner(parallelism=1)
        mapped = runner.align(reference, reads, index_path=store.path)
        assert ([sam_record(r, reference) for r in mapped]
                == [sam_record(r, reference) for r in plain])


class TestServiceIndexPath:
    def test_engine_factory_attaches_the_store(self, tmp_path, reference):
        from repro.service.protocol import AlignRequest, TYPE_ALIGN
        from repro.service.server import AlignmentServer, ServerConfig

        store = build_index_store(reference, tmp_path / "ref.idx")
        reads = ReadSimulator(reference, read_length=80,
                              seed=5).simulate(4)
        requests = [AlignRequest(request_id=f"r{i}", type=TYPE_ALIGN,
                                 reads=[read])
                    for i, read in enumerate(reads)]
        plain_server = AlignmentServer(reference, config=ServerConfig())
        mmap_server = AlignmentServer(
            reference, config=ServerConfig(index_path=store.path))
        plain_engine = plain_server._engine_factory()
        mmap_engine = mmap_server._engine_factory()
        assert mmap_engine.execute(requests) == \
            plain_engine.execute(requests)
