"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(5, lambda: log.append("b"))
        engine.schedule(1, lambda: log.append("a"))
        engine.schedule(9, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 9

    def test_same_cycle_fifo(self):
        engine = Engine()
        log = []
        for tag in "abc":
            engine.schedule(3, lambda t=tag: log.append(t))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_nested_scheduling(self):
        engine = Engine()
        log = []

        def first():
            log.append(engine.now)
            engine.schedule(10, lambda: log.append(engine.now))

        engine.schedule(2, first)
        engine.run()
        assert log == [2, 12]

    def test_zero_delay_runs_same_cycle(self):
        engine = Engine()
        hit = []
        engine.schedule(4, lambda: engine.schedule(0, lambda: hit.append(engine.now)))
        engine.run()
        assert hit == [4]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1, lambda: None)


class TestRunControl:
    def test_max_cycles_stops_early(self):
        engine = Engine()
        log = []
        engine.schedule(1, lambda: log.append(1))
        engine.schedule(100, lambda: log.append(100))
        assert engine.run(max_cycles=50) == 1
        assert log == [1]
        assert engine.events_processed == 1

    def test_resume_after_max_cycles(self):
        engine = Engine()
        log = []
        engine.schedule(100, lambda: log.append(100))
        engine.run(max_cycles=50)
        engine.run()
        assert log == [100]

    def test_livelock_guard(self):
        engine = Engine()

        def loop():
            engine.schedule(0, loop)

        engine.schedule(0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=1000)

    def test_events_processed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1, lambda: None)
        engine.run()
        assert engine.events_processed == 5
