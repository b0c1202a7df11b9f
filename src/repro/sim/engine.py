"""Cycle-driven, event-based simulation kernel.

The paper: "We build a cycle-accurate and execution-driven simulator using
Python to model the microarchitectural behaviors and measure execution time
in the number of cycles." This kernel is that simulator's core: a
deterministic discrete-event engine whose time unit is one clock cycle at
the accelerator frequency (1 GHz in the paper's configuration).

Events scheduled for the same cycle run in insertion order, which gives the
same determinism as a synchronous hardware schedule: producers scheduled
before consumers observe a consistent cycle boundary.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised on invalid scheduling or a runaway simulation."""


class Engine:
    """Discrete-event simulation engine with integer cycle time."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue = []
        self._counter = itertools.count()
        self._events_processed = 0

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._counter), callback))

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def run(self, max_cycles: Optional[int] = None,
            max_events: int = 50_000_000) -> int:
        """Process events until the queue drains; returns the final cycle.

        Args:
            max_cycles: stop (without error) once time exceeds this.
            max_events: hard safety limit against livelocked models.
        """
        while self._queue:
            time, _, callback = self._queue[0]
            if max_cycles is not None and time > max_cycles:
                break
            heapq.heappop(self._queue)
            self.now = time
            self._events_processed += 1
            if self._events_processed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events — model livelock?")
            callback()
        return self.now
