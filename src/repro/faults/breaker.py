"""Circuit breaker: shed load instead of collapsing.

Classic three-state breaker over a sliding failure window:

- **closed** — normal operation; failures are counted in a
  ``window_s``-wide sliding window, and reaching ``failure_threshold``
  trips the breaker open.
- **open** — :meth:`CircuitBreaker.allow` answers ``False`` (the caller
  sheds with ``busy``) until ``cooldown_s`` has elapsed.
- **half-open** — after the cooldown, up to ``half_open_probes`` calls
  are let through; one success closes the breaker, one failure re-opens
  it and restarts the cooldown.

Liveness checks outside the request path (the gateway's health pings)
drive the same state machine: :meth:`CircuitBreaker.try_probe` claims a
half-open slot without ever shedding, and :meth:`CircuitBreaker.trip`
opens the breaker outright when such a probe proves the target gone.

The breaker is self-locking (the server's workers record outcomes while
the dispatch path asks :meth:`allow`), takes an injectable clock for
tests, and reports transitions through an optional callback so the
server can mirror state into :class:`~repro.service.metrics.
MetricsRegistry` and :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

#: Breaker states (string-valued for easy snapshotting).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric codes for gauges (0 healthy → 2 fully open).
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Sliding-window circuit breaker with half-open probing.

    Args:
        failure_threshold: failures within ``window_s`` that trip it.
        window_s: sliding window width for failure counting.
        cooldown_s: how long to stay open before probing.
        half_open_probes: concurrent probe calls allowed half-open.
        clock: injectable monotonic clock.
        on_transition: ``(old_state, new_state)`` callback, invoked
            outside the lock.
    """

    def __init__(self, failure_threshold: int = 5,
                 window_s: float = 10.0,
                 cooldown_s: float = 5.0,
                 half_open_probes: int = 1,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Optional[Callable[[str, str], None]]
                 = None):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {failure_threshold}")
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if cooldown_s < 0:
            raise ValueError(
                f"cooldown_s must be >= 0, got {cooldown_s}")
        if half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1, "
                             f"got {half_open_probes}")
        self.failure_threshold = failure_threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures: Deque[float] = deque()
        self._opened_at = 0.0
        self._probes_issued = 0
        self._opens = 0
        self._sheds = 0

    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def state_code(self) -> int:
        return STATE_CODES[self.state]

    def _transition(self, new_state: str) -> Optional[Callable[[], None]]:
        """Set state under the lock; a deferred callback to run outside."""
        old_state = self._state
        if old_state == new_state:
            return None
        self._state = new_state
        if new_state == OPEN:
            self._opens += 1
            self._opened_at = self._clock()
        if new_state == HALF_OPEN:
            self._probes_issued = 0
        if new_state == CLOSED:
            self._failures.clear()
        callback = self._on_transition
        if callback is None:
            return None
        return lambda: callback(old_state, new_state)

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._failures and self._failures[0] < cutoff:
            self._failures.popleft()

    # ------------------------------------------------------------------ #

    def allow(self) -> bool:
        """May a new request proceed right now?

        ``False`` means the caller should shed (``busy``): the breaker
        is open, or half-open with its probe quota already out.
        """
        return self._acquire(closed=True, count_shed=True)

    def try_probe(self) -> bool:
        """Claim a half-open probe slot for an out-of-band probe.

        For liveness checks outside the request path (a health ping):
        ``True`` when the caller now holds a probe and must report its
        outcome — the breaker was open past its cooldown, or half-open
        with a slot free.  A closed breaker, a cooldown still running or
        a slot a request already holds all answer ``False``, and unlike
        :meth:`allow` that refusal is not counted as a shed.
        """
        return self._acquire(closed=False, count_shed=False)

    def _acquire(self, closed: bool, count_shed: bool) -> bool:
        notify = None
        with self._lock:
            if self._state == CLOSED:
                allowed = closed
            elif (self._state == OPEN and self._clock() - self._opened_at
                    >= self.cooldown_s):
                notify = self._transition(HALF_OPEN)
                self._probes_issued = 1
                allowed = True
            elif (self._state == HALF_OPEN
                    and self._probes_issued < self.half_open_probes):
                self._probes_issued += 1
                allowed = True
            else:
                if count_shed:
                    self._sheds += 1
                allowed = False
        if notify is not None:
            notify()
        return allowed

    def trip(self) -> None:
        """Open the breaker now and restart its cooldown, whatever its
        state: an out-of-band probe proved the target unreachable."""
        with self._lock:
            notify = self._transition(OPEN)
            self._opened_at = self._clock()
        if notify is not None:
            notify()

    def record_failure(self) -> None:
        """Count one failure; may trip open (or re-open a probe)."""
        notify = None
        with self._lock:
            now = self._clock()
            self._failures.append(now)
            self._prune(now)
            if self._state == HALF_OPEN:
                notify = self._transition(OPEN)
            elif (self._state == CLOSED
                    and len(self._failures) >= self.failure_threshold):
                notify = self._transition(OPEN)
        if notify is not None:
            notify()

    def record_success(self) -> None:
        """Count one success; closes a half-open breaker."""
        notify = None
        with self._lock:
            if self._state == HALF_OPEN:
                notify = self._transition(CLOSED)
        if notify is not None:
            notify()

    # ------------------------------------------------------------------ #

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot for the server's ``stats`` payload."""
        with self._lock:
            now = self._clock()
            self._prune(now)
            return {
                "state": self._state,
                "failures_in_window": len(self._failures),
                "failure_threshold": self.failure_threshold,
                "window_s": self.window_s,
                "cooldown_s": self.cooldown_s,
                "opens_total": self._opens,
                "sheds_total": self._sheds,
            }
