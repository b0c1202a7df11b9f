"""FaultPlan / FaultInjector: validation, determinism, firing rules."""

import threading

import pytest

from repro.faults.plan import (
    CONN_DROP,
    FAULT_KINDS,
    LATENCY_SPIKE,
    NAMED_PLANS,
    SHARD_KILL,
    SITE_CONN_WRITE,
    SITE_ENGINE,
    SITE_SHARD,
    SITES,
    WORKER_CRASH,
    FaultPlan,
    FaultSpec,
    named_plan,
)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike", SITE_ENGINE)

    def test_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(WORKER_CRASH, "the_moon")

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=-0.1)

    def test_at_calls_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(WORKER_CRASH, SITE_ENGINE, at_calls=(0,))

    def test_max_fires_non_negative(self):
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(WORKER_CRASH, SITE_ENGINE, max_fires=-1)


class TestFiring:
    def test_at_calls_fire_exactly_there(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, at_calls=(2, 5)),))
        injector = plan.injector()
        decisions = [injector.check(SITE_ENGINE) for _ in range(6)]
        fired_at = [i + 1 for i, e in enumerate(decisions) if e is not None]
        assert fired_at == [2, 5]
        assert all(e.kind == WORKER_CRASH for e in decisions
                   if e is not None)

    def test_event_carries_param_and_call_index(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(LATENCY_SPIKE, SITE_ENGINE, at_calls=(1,),
                      param=0.25),))
        event = plan.injector().check(SITE_ENGINE)
        assert event.kind == LATENCY_SPIKE
        assert event.site == SITE_ENGINE
        assert event.call_index == 1
        assert event.param == 0.25

    def test_max_fires_caps_rate_spec(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(CONN_DROP, SITE_CONN_WRITE, rate=1.0, max_fires=3),))
        injector = plan.injector()
        events = [injector.check(SITE_CONN_WRITE) for _ in range(10)]
        assert sum(e is not None for e in events) == 3
        assert injector.fired_counts() == {CONN_DROP: 3}

    def test_sites_are_independent_counters(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, at_calls=(1,)),
            FaultSpec(SHARD_KILL, SITE_SHARD, at_calls=(1,)),))
        injector = plan.injector()
        assert injector.check(SITE_ENGINE) is not None
        assert injector.calls(SITE_ENGINE) == 1
        assert injector.calls(SITE_SHARD) == 0
        assert injector.check(SITE_SHARD) is not None
        assert injector.calls(SITE_SHARD) == 1

    def test_fired_schedule_records_everything(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(CONN_DROP, SITE_CONN_WRITE, at_calls=(1, 3)),))
        injector = plan.injector()
        for _ in range(3):
            injector.check(SITE_CONN_WRITE)
        assert injector.fired_schedule() == [
            (SITE_CONN_WRITE, 1, CONN_DROP),
            (SITE_CONN_WRITE, 3, CONN_DROP),
        ]

    def test_one_event_per_call_first_spec_wins(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, at_calls=(1,)),
            FaultSpec(LATENCY_SPIKE, SITE_ENGINE, at_calls=(1,)),))
        injector = plan.injector()
        event = injector.check(SITE_ENGINE)
        assert event.kind == WORKER_CRASH
        assert len(injector.fired) == 1

    def test_thread_safety_counts_every_crossing(self):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(CONN_DROP, SITE_CONN_WRITE, rate=0.5),))
        injector = plan.injector()

        def cross():
            for _ in range(200):
                injector.check(SITE_CONN_WRITE)

        threads = [threading.Thread(target=cross) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert injector.calls(SITE_CONN_WRITE) == 800


class TestDeterminism:
    def test_same_seed_same_preview(self):
        a = FaultPlan(seed=42, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=0.3),
            FaultSpec(CONN_DROP, SITE_CONN_WRITE, rate=0.2),))
        b = FaultPlan(seed=42, specs=a.specs)
        assert a.preview_all(128) == b.preview_all(128)

    def test_different_seed_different_schedule(self):
        spec = (FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=0.3),)
        a = FaultPlan(seed=1, specs=spec).preview(SITE_ENGINE, 256)
        b = FaultPlan(seed=2, specs=spec).preview(SITE_ENGINE, 256)
        assert a != b

    def test_preview_is_side_effect_free(self):
        plan = named_plan("ci-default", 7)
        before = plan.preview_all(32)
        injector = plan.injector()
        injector.check(SITE_ENGINE)
        assert plan.preview_all(32) == before

    def test_rate_streams_independent_of_other_specs(self):
        """Spec 1's schedule must not shift when spec 0 changes."""
        probe = FaultSpec(CONN_DROP, SITE_ENGINE, rate=0.4)
        quiet = FaultPlan(seed=9, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=0.0), probe))
        noisy = FaultPlan(seed=9, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=1.0), probe))

        def spec1_draws(plan):
            injector = plan.injector()
            fired = []
            for call in range(1, 101):
                injector.check(SITE_ENGINE)
                fired.append(any(
                    e.call_index == call and e.kind == CONN_DROP
                    for e in injector.fired))
            return fired

        # Under the noisy plan spec 0 masks spec 1 (first match wins),
        # so compare the underlying stream via a plan where only the
        # probe can win: seed and spec position are what matter.
        solo_a = FaultPlan(seed=9, specs=(
            FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=0.0), probe))
        solo_b = FaultPlan(seed=9, specs=(
            FaultSpec(LATENCY_SPIKE, SITE_ENGINE, rate=0.0), probe))
        assert spec1_draws(solo_a) == spec1_draws(solo_b)
        assert quiet.preview(SITE_ENGINE, 100) is not None
        assert noisy.preview(SITE_ENGINE, 100) is not None


class TestNamedPlans:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            named_plan("nonesuch", 1)

    def test_registry_names(self):
        assert set(NAMED_PLANS) == {"ci-default", "soak",
                                    "cluster-restart", "none"}

    def test_ci_default_covers_every_kind(self):
        plan = named_plan("ci-default", 7)
        assert plan.kinds() == FAULT_KINDS
        # Every spec uses exact call indices → coverage is guaranteed.
        assert all(spec.at_calls for spec in plan.specs)

    def test_none_plan_never_fires(self):
        plan = named_plan("none", 7)
        preview = plan.preview_all(64)
        assert all(decision is None
                   for site in SITES for decision in preview[site])

    def test_soak_is_bounded(self):
        plan = named_plan("soak", 7)
        assert all(spec.max_fires is not None for spec in plan.specs)
