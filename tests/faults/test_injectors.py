"""Boundary shims: FaultyEngine, FlakyEngine, corrupt_file,
IdempotencyCache."""

import pytest

from repro.faults.injectors import (
    FaultyEngine,
    FlakyEngine,
    IdempotencyCache,
    InjectedFault,
    corrupt_file,
)
from repro.faults.plan import (
    LATENCY_SPIKE,
    SITE_ENGINE,
    WORKER_CRASH,
    FaultPlan,
    FaultSpec,
)


class RecordingEngine:
    def __init__(self):
        self.batches = []

    def execute(self, requests):
        self.batches.append(list(requests))
        return [f"result-{r}" for r in requests]


class TestFaultyEngine:
    def test_crash_fires_before_inner_engine(self):
        inner = RecordingEngine()
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, at_calls=(1,)),))
        engine = FaultyEngine(inner, plan.injector())
        with pytest.raises(InjectedFault) as excinfo:
            engine.execute(["a"])
        assert excinfo.value.event.kind == WORKER_CRASH
        assert inner.batches == []  # the crash preceded execution
        # The next call is clean and reaches the inner engine.
        assert engine.execute(["b"]) == ["result-b"]
        assert inner.batches == [["b"]]

    def test_latency_spike_sleeps_then_executes(self):
        inner = RecordingEngine()
        slept = []
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(LATENCY_SPIKE, SITE_ENGINE, at_calls=(1,),
                      param=0.07),))
        engine = FaultyEngine(inner, plan.injector(), sleep=slept.append)
        assert engine.execute(["a"]) == ["result-a"]
        assert slept == [0.07]
        assert inner.batches == [["a"]]

    def test_no_fault_no_overhead_path(self):
        inner = RecordingEngine()
        plan = FaultPlan(seed=1, specs=())
        engine = FaultyEngine(inner, plan.injector())
        assert engine.execute(["a"]) == ["result-a"]


class TestFlakyEngine:
    def test_crashes_on_exact_calls(self):
        inner = RecordingEngine()
        flaky = FlakyEngine(inner, crash_on_calls=(1, 3))
        with pytest.raises(RuntimeError, match="injected worker crash"):
            flaky.execute(["a"])
        assert flaky.execute(["b"]) == ["result-b"]
        with pytest.raises(RuntimeError):
            flaky.execute(["c"])
        assert flaky.calls == 3

    def test_exc_factory_customizes_error(self):
        flaky = FlakyEngine(RecordingEngine(), crash_on_calls=(1,),
                            exc_factory=lambda call: OSError(
                                f"infra death on call {call}"))
        with pytest.raises(OSError, match="infra death on call 1"):
            flaky.execute(["a"])


class TestCorruptFile:
    def test_truncates_to_fraction(self, tmp_path):
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"x" * 1000)
        kept = corrupt_file(str(path), keep_fraction=0.25)
        assert kept == 250
        assert path.stat().st_size == 250

    def test_zero_empties_the_file(self, tmp_path):
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"x" * 10)
        assert corrupt_file(str(path)) == 0
        assert path.stat().st_size == 0

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 2.0])
    def test_fraction_validated(self, tmp_path, fraction):
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"x")
        with pytest.raises(ValueError, match="keep_fraction"):
            corrupt_file(str(path), keep_fraction=fraction)


class TestIdempotencyCache:
    def test_get_put_contains(self):
        cache = IdempotencyCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", {"sam": ["line"]})
        assert cache.get("k") == {"sam": ["line"]}
        assert "k" in cache
        assert "missing" not in cache
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = IdempotencyCache(capacity=2)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        cache.get("a")            # refresh a → b is now the LRU entry
        cache.put("c", {"n": 3})
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_overwrite_same_key_keeps_size(self):
        cache = IdempotencyCache(capacity=2)
        cache.put("a", {"n": 1})
        cache.put("a", {"n": 2})
        assert cache.get("a") == {"n": 2}
        assert len(cache) == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            IdempotencyCache(capacity=0)
