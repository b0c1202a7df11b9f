"""CircuitBreaker state machine, driven entirely by a fake clock."""

import pytest

from repro.faults.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STATE_CODES,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


def make_breaker(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("window_s", 10.0)
    kwargs.setdefault("cooldown_s", 5.0)
    return CircuitBreaker(clock=clock, **kwargs)


def trip(breaker, n=3):
    for _ in range(n):
        breaker.record_failure()


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0},
        {"window_s": 0},
        {"cooldown_s": -1},
        {"half_open_probes": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestStateMachine:
    def test_starts_closed_and_allows(self, clock):
        breaker = make_breaker(clock)
        assert breaker.state == CLOSED
        assert breaker.state_code == STATE_CODES[CLOSED] == 0
        assert breaker.allow()

    def test_opens_at_threshold(self, clock):
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_window_expiry_forgets_old_failures(self, clock):
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(11.0)  # both fall out of the 10 s window
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_then_closes(self, clock):
        breaker = make_breaker(clock)
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()          # the probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self, clock):
        breaker = make_breaker(clock)
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        # The cooldown restarted: still shedding just before it ends.
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_half_open_probe_quota(self, clock):
        breaker = make_breaker(clock, half_open_probes=1)
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()          # probe slot taken
        assert not breaker.allow()      # quota exhausted → shed
        breaker.record_success()
        assert breaker.allow()

    def test_sheds_while_open(self, clock):
        breaker = make_breaker(clock)
        trip(breaker)
        for _ in range(4):
            assert not breaker.allow()
        assert breaker.as_dict()["sheds_total"] == 4


class TestOutOfBandProbe:
    def test_try_probe_only_claims_half_open_slots_and_never_sheds(
            self, clock):
        breaker = make_breaker(clock, half_open_probes=1)
        assert not breaker.try_probe()   # closed: nothing to probe
        trip(breaker)
        assert not breaker.try_probe()   # cooling down
        clock.advance(5.0)
        assert breaker.try_probe()       # takes the half-open slot
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()       # a request now sheds
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.as_dict()["sheds_total"] == 1

    def test_try_probe_leaves_a_request_held_slot_alone(self, clock):
        breaker = make_breaker(clock, half_open_probes=1)
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()           # a request is the probe
        assert not breaker.try_probe()
        assert breaker.state == HALF_OPEN
        assert breaker.as_dict()["sheds_total"] == 0

    def test_trip_opens_from_any_state_and_restarts_the_cooldown(
            self, clock):
        transitions = []
        breaker = make_breaker(clock, on_transition=lambda a, b:
                               transitions.append((a, b)))
        breaker.trip()
        assert breaker.state == OPEN
        clock.advance(4.0)
        breaker.trip()                   # already open: cooldown rearms
        clock.advance(4.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()
        assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN)]


class TestObservability:
    def test_on_transition_sequence(self, clock):
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=2, window_s=10.0, cooldown_s=1.0,
            clock=clock, on_transition=lambda a, b: transitions.append(
                (a, b)))
        trip(breaker, 2)
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        assert transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    def test_as_dict_snapshot(self, clock):
        breaker = make_breaker(clock)
        trip(breaker)
        snap = breaker.as_dict()
        assert snap["state"] == OPEN
        assert snap["opens_total"] == 1
        assert snap["failure_threshold"] == 3
        assert snap["failures_in_window"] == 3

    def test_reclose_clears_window(self, clock):
        breaker = make_breaker(clock, cooldown_s=1.0)
        trip(breaker)
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        # One fresh failure must not instantly re-trip: the window was
        # cleared on close, so the count restarts from zero.
        breaker.record_failure()
        assert breaker.state == CLOSED
