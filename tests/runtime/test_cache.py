"""Artifact cache: cold-miss/warm-hit, invalidation, corruption recovery."""

import os
import pickle

import pytest

from repro.genome.reads import ILLUMINA
from repro.genome.reference import SyntheticReference
from repro.runtime.cache import (
    CACHE_SCHEMA_VERSION,
    ArtifactCache,
    canonical_params,
    open_cache,
)
from repro.runtime.artifacts import (
    cached_fm_index,
    cached_pipeline_inputs,
    cached_read_set,
    cached_reference,
    cached_synthetic_workload,
)
from repro.genome.datasets import get_dataset


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


class TestCacheMechanics:
    def test_cold_miss_then_warm_hit(self, cache):
        calls = []

        def build():
            calls.append(1)
            return {"answer": 42}

        first, hit1 = cache.get_or_build("thing", {"n": 3}, build)
        second, hit2 = cache.get_or_build("thing", {"n": 3}, build)
        assert (hit1, hit2) == (False, True)
        assert first == second == {"answer": 42}
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_param_change_is_a_miss(self, cache):
        cache.get_or_build("thing", {"n": 3}, lambda: "a")
        value, hit = cache.get_or_build("thing", {"n": 4}, lambda: "b")
        assert (value, hit) == ("b", False)
        # Both entries coexist under distinct digests.
        assert len(cache.entries()) == 2

    def test_kind_disambiguates(self, cache):
        cache.get_or_build("alpha", {"n": 3}, lambda: "a")
        value, hit = cache.get_or_build("beta", {"n": 3}, lambda: "b")
        assert (value, hit) == ("b", False)

    def test_key_is_order_insensitive(self, cache):
        assert cache.key("k", {"a": 1, "b": (2, 3)}) == \
            cache.key("k", {"b": [2, 3], "a": 1})

    def test_key_includes_schema_version(self, cache):
        payload_key = cache.key("k", {"a": 1})
        assert CACHE_SCHEMA_VERSION == 1
        assert len(payload_key) == 64  # sha256 hex

    def test_canonical_params_rejects_objects(self):
        with pytest.raises(TypeError):
            canonical_params({"bad": object()})

    def test_corrupt_entry_falls_back_to_rebuild(self, cache):
        cache.get_or_build("thing", {"n": 3}, lambda: "good")
        path = cache.path_for("thing", {"n": 3})
        with open(path, "wb") as handle:
            handle.write(b"\x00not a pickle")
        value, hit = cache.get_or_build("thing", {"n": 3}, lambda: "rebuilt")
        assert (value, hit) == ("rebuilt", False)
        assert cache.stats.corrupt == 1
        # The rebuilt entry replaced the corrupt one and is loadable again.
        assert cache.get_or_build("thing", {"n": 3}, lambda: "x") == \
            ("rebuilt", True)

    def test_truncated_entry_falls_back(self, cache):
        cache.get_or_build("thing", {"n": 3}, lambda: list(range(1000)))
        path = cache.path_for("thing", {"n": 3})
        with open(path, "r+b") as handle:
            handle.truncate(16)
        value, hit = cache.load("thing", {"n": 3})
        assert (value, hit) == (None, False)
        assert cache.stats.corrupt == 1
        assert not os.path.exists(path)

    def test_envelope_mismatch_is_corrupt(self, cache):
        """A digest collision / manual rename cannot serve wrong data."""
        cache.get_or_build("thing", {"n": 3}, lambda: "good")
        src = cache.path_for("thing", {"n": 3})
        dst = cache.path_for("thing", {"n": 4})
        os.replace(src, dst)
        value, hit = cache.load("thing", {"n": 4})
        assert (value, hit) == (None, False)
        assert cache.stats.corrupt == 1

    def test_store_is_atomic_no_tmp_left_behind(self, cache):
        cache.store("thing", {"n": 1}, "x")
        leftovers = [name for name in os.listdir(cache.cache_dir)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_store_failure_cleans_tmp(self, cache):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("no pickling")

        with pytest.raises(RuntimeError, match="no pickling"):
            cache.store("thing", {"n": 1}, Unpicklable())
        assert os.listdir(cache.cache_dir) == []

    def test_clear(self, cache):
        cache.store("a", {"n": 1}, 1)
        cache.store("b", {"n": 2}, 2)
        assert cache.clear() == 2
        assert cache.entries() == {}

    def test_open_cache(self, tmp_path):
        assert open_cache(None) is None
        opened = open_cache(tmp_path / "c")
        assert isinstance(opened, ArtifactCache)

    def test_envelope_round_trips_params(self, cache):
        cache.store("thing", {"n": (1, 2)}, "v")
        with open(cache.path_for("thing", {"n": (1, 2)}), "rb") as handle:
            envelope = pickle.load(handle)
        assert envelope["kind"] == "thing"
        assert envelope["params"] == {"n": [1, 2]}
        assert envelope["schema"] == CACHE_SCHEMA_VERSION


class TestDomainMemoizers:
    def test_cached_reference_warm_equals_cold(self, cache):
        cold = cached_reference(cache, length=5_000, chromosomes=1, seed=7)
        warm = cached_reference(cache, length=5_000, chromosomes=1, seed=7)
        direct = SyntheticReference(length=5_000, chromosomes=1,
                                    seed=7).build()
        assert cold.concatenated() == warm.concatenated() \
            == direct.concatenated()
        assert cache.stats.hits == 1

    def test_reference_seed_invalidates(self, cache):
        a = cached_reference(cache, length=5_000, chromosomes=1, seed=7)
        b = cached_reference(cache, length=5_000, chromosomes=1, seed=8)
        assert a.concatenated() != b.concatenated()
        assert cache.stats.hits == 0

    def test_cached_read_set_and_index(self, cache):
        reference, reads, index = cached_pipeline_inputs(
            cache, length=5_000, chromosomes=1, read_count=20,
            genome_seed=3, read_seed=5)
        reference2, reads2, index2 = cached_pipeline_inputs(
            cache, length=5_000, chromosomes=1, read_count=20,
            genome_seed=3, read_seed=5)
        assert [r.sequence for r in reads] == [r.sequence for r in reads2]
        assert reference.concatenated() == reference2.concatenated()
        # Warm pass: every one of the 3 artifacts was a hit.
        assert cache.stats.hits == 3
        # The warm index answers queries identically.
        text = reference.concatenated()
        probe = text[100:140]
        assert index2.locate(index2.search(probe), 40) == \
            index.locate(index.search(probe), 40)

    def test_index_occ_interval_invalidates(self, cache):
        reference = cached_reference(cache, length=4_000, chromosomes=1,
                                     seed=1)
        params = SyntheticReference(length=4_000, chromosomes=1,
                                    seed=1).params()
        cached_fm_index(cache, reference, params, occ_interval=64)
        hits_before = cache.stats.hits
        cached_fm_index(cache, reference, params, occ_interval=128)
        assert cache.stats.hits == hits_before  # different key -> rebuild

    def test_cached_workload_warm_equals_cold(self, cache):
        profile = get_dataset("H.s.")
        cold = cached_synthetic_workload(cache, profile, 50, seed=11)
        warm = cached_synthetic_workload(cache, profile, 50, seed=11)
        assert cache.stats.hits == 1
        assert [t.read_idx for t in cold.tasks] == \
            [t.read_idx for t in warm.tasks]
        assert cold.hit_lengths() == warm.hit_lengths()

    def test_none_cache_builds_directly(self):
        profile = get_dataset("H.s.")
        workload = cached_synthetic_workload(None, profile, 10, seed=2)
        assert len(workload) == 10
        reads = cached_read_set(
            None, SyntheticReference(length=3_000, chromosomes=1,
                                     seed=0).build(),
            {"seed": 0}, 5, error_model=ILLUMINA)
        assert len(reads) == 5


def _raise_type_error(*args):
    raise TypeError("consumer bug, not data corruption")


class _BombPayload:
    """Pickles fine; reconstruction raises TypeError (a programming
    error in the consumer's type, not a torn file)."""

    def __reduce__(self):
        return (_raise_type_error, ())


class TestCorruptionDiscipline:
    """The blanket-except fix: data corruption is a counted miss plus an
    eviction; programming errors propagate to the caller."""

    def test_empty_file_is_corrupt_miss(self, cache):
        cache.get_or_build("thing", {"n": 3}, lambda: "good")
        path = cache.path_for("thing", {"n": 3})
        with open(path, "wb"):
            pass  # zero bytes: the torn write corrupt_file(0.0) models
        value, hit = cache.load("thing", {"n": 3})
        assert (value, hit) == (None, False)
        assert cache.stats.corrupt == 1
        assert not os.path.exists(path)

    def test_programming_error_propagates(self, cache):
        cache.store("thing", {"n": 3}, _BombPayload())
        with pytest.raises(TypeError, match="consumer bug"):
            cache.load("thing", {"n": 3})
        # Not misclassified as corruption; the entry is left alone.
        assert cache.stats.corrupt == 0
        assert os.path.exists(cache.path_for("thing", {"n": 3}))

    def test_injected_corruption_recovers(self, tmp_path):
        from repro.faults.plan import (CACHE_CORRUPT, SITE_CACHE_LOAD,
                                       FaultPlan, FaultSpec)
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(CACHE_CORRUPT, SITE_CACHE_LOAD, at_calls=(1,)),))
        injector = plan.injector()
        cache = ArtifactCache(tmp_path / "inj", fault_injector=injector)
        builds = []

        def build():
            builds.append(1)
            return {"k": list(range(100))}

        first, hit = cache.get_or_build("thing", {"n": 1}, build)
        assert not hit
        # This load crosses the cache_load site: the injected fault
        # truncates the entry, which must read as a corrupt miss.
        second, hit = cache.get_or_build("thing", {"n": 1}, build)
        assert (second, hit) == (first, False)
        assert cache.stats.corrupt == 1
        assert len(builds) == 2
        # The rebuilt entry is healthy again (site call 2: no fault).
        third, hit = cache.get_or_build("thing", {"n": 1}, build)
        assert (third, hit) == (first, True)

    def test_miss_does_not_cross_injection_site(self, tmp_path):
        """Only loads of *existing* entries cross cache_load — a cold
        miss cannot consume a scheduled corruption event."""
        from repro.faults.plan import (CACHE_CORRUPT, SITE_CACHE_LOAD,
                                       FaultPlan, FaultSpec)
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(CACHE_CORRUPT, SITE_CACHE_LOAD, at_calls=(1,)),))
        injector = plan.injector()
        cache = ArtifactCache(tmp_path / "inj", fault_injector=injector)
        cache.load("thing", {"n": 1})  # cold miss: no entry on disk
        assert injector.calls(SITE_CACHE_LOAD) == 0
        cache.store("thing", {"n": 1}, "v")
        cache.load("thing", {"n": 1})
        assert injector.calls(SITE_CACHE_LOAD) == 1
