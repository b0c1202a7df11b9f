"""Index store threaded through cache, sharded runner, and service."""

import os

import pytest

from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.runtime.artifacts import cached_fm_index, cached_index_store
from repro.runtime.cache import ArtifactCache
from repro.seeding.store import (
    FORMAT_VERSION,
    IndexStore,
    IndexVersionError,
    build_index_store,
)


@pytest.fixture(scope="module")
def reference():
    return SyntheticReference(length=8_000, chromosomes=2, seed=13).build()


@pytest.fixture(scope="module")
def ref_params():
    return SyntheticReference(length=8_000, chromosomes=2,
                              seed=13).params()


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


class TestCachedIndexStore:
    def test_cold_miss_then_mmap_hit(self, cache, reference, ref_params):
        first = cached_index_store(cache, reference, ref_params,
                                   occ_interval=64)
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        second = cached_index_store(cache, reference, ref_params,
                                    occ_interval=64)
        assert cache.stats.hits == 1
        assert second.content_hash == first.content_hash
        # The store file is a cache entry with the .idx suffix.
        assert any(name.endswith(".idx") for name in cache.entries())

    def test_corrupt_store_rebuilds_and_counts(self, cache, reference,
                                               ref_params):
        store = cached_index_store(cache, reference, ref_params,
                                   occ_interval=64)
        with open(store.path, "r+b") as handle:
            handle.truncate(os.path.getsize(store.path) // 2)
        again = cached_index_store(cache, reference, ref_params,
                                   occ_interval=64)
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 2  # cold build + corrupt rebuild
        assert again.content_hash == store.content_hash

    def test_occ_interval_addresses_a_different_store(self, cache,
                                                      reference,
                                                      ref_params):
        cached_index_store(cache, reference, ref_params, occ_interval=64)
        cached_index_store(cache, reference, ref_params, occ_interval=128)
        assert cache.stats.hits == 0
        idx_entries = [n for n in cache.entries() if n.endswith(".idx")]
        assert len(idx_entries) == 2

    def test_cached_fm_index_routes_through_store(self, cache, reference,
                                                  ref_params):
        warm_twice = [cached_fm_index(cache, reference, ref_params,
                                      occ_interval=64) for _ in range(2)]
        assert cache.stats.hits == 1
        direct = cached_fm_index(None, reference, ref_params,
                                 occ_interval=64)
        text = reference.concatenated()
        probe = text[200:240]
        for index in warm_twice:
            bi_a = index.search(probe)
            bi_b = direct.search(probe)
            assert (bi_a.k, bi_a.l, bi_a.s) == (bi_b.k, bi_b.l, bi_b.s)
            assert index.locate(bi_a, 40) == direct.locate(bi_b, 40)

    def test_two_component_store_is_left_for_a_fresh_path(
            self, cache, reference, ref_params):
        """A version-1 store under the old key is never attached: the
        version-2 key addresses a fresh path, built cold."""
        old_params = {"reference": ref_params, "occ_interval": 64,
                      "sa_sample": 1, "format_version": 1}
        old_path = cache.path_for("index_store", old_params, suffix=".idx")
        build_index_store(reference, old_path, occ_interval=64)
        with open(old_path, "r+b") as handle:
            handle.seek(8)
            handle.write((1).to_bytes(4, "little"))
        with pytest.raises(IndexVersionError):
            IndexStore.open(old_path)
        before = os.path.getsize(old_path)

        store = cached_index_store(cache, reference, ref_params,
                                   occ_interval=64)
        assert store.path != old_path
        assert store.format_version == FORMAT_VERSION == 2
        assert (cache.stats.misses, cache.stats.hits,
                cache.stats.corrupt) == (1, 0, 0)
        assert os.path.getsize(old_path) == before


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
