"""Utilization traces and counters for the cycle simulator.

Fig 12 plots per-cycle resource utilization of SUs and EUs; this module
records each unit's busy intervals and converts them into average
utilization and binned time series without per-cycle simulation overhead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


class UtilizationTrace:
    """Busy-interval recorder for a pool of identical units."""

    def __init__(self, unit_count: int, name: str = "units"):
        if unit_count <= 0:
            raise ValueError(f"unit_count must be positive, got {unit_count}")
        self.unit_count = unit_count
        self.name = name
        self._intervals: List[Tuple[int, int]] = []

    def add(self, start: int, end: int) -> None:
        """Record one unit busy over ``[start, end)``.

        A unit's finish cycle is known when it starts, so the simulator
        records each interval once, at dispatch; an interval may run past
        the end of a run cut short by ``max_cycles``, and every reader
        below clips it to the window it is asked about.
        """
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        if end > start:
            self._intervals.append((start, end))

    def intervals(self) -> List[Tuple[int, int]]:
        """Recorded ``(start, end)`` busy intervals, in ``add()`` order
        (by start cycle, not by end cycle)."""
        return list(self._intervals)

    @property
    def busy_cycles(self) -> int:
        return sum(end - start for start, end in self._intervals)

    def average_utilization(self, total_cycles: int,
                            start: int = 0) -> float:
        """Mean fraction of busy units over ``[start, total_cycles)``."""
        if total_cycles <= start:
            return 0.0
        window = total_cycles - start
        busy = sum(max(0, min(e, total_cycles) - max(s, start))
                   for s, e in self._intervals)
        return busy / (window * self.unit_count)

    def series(self, total_cycles: int, bins: int = 100) -> np.ndarray:
        """Binned utilization time series in [0, 1] (Fig 12's curves)."""
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        if total_cycles <= 0:
            return np.zeros(bins)
        edges = np.linspace(0, total_cycles, bins + 1)
        busy = np.zeros(bins)
        # Intervals are not ordered by end cycle, so an interval past
        # total_cycles says nothing about later entries: clip every
        # interval to the window instead of stopping early.
        for s, e in self._intervals:
            lo = np.searchsorted(edges, s, side="right") - 1
            hi = np.searchsorted(edges, e, side="left")
            for b in range(max(lo, 0), min(hi, bins)):
                overlap = min(e, edges[b + 1]) - max(s, edges[b])
                if overlap > 0:
                    busy[b] += overlap
        widths = np.diff(edges)
        return busy / (widths * self.unit_count)


@dataclass
class CounterSet:
    """Named integer counters (allocations, stalls, buffer switches, ...)."""

    counts: Counter = field(default_factory=Counter)

    def add(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)


@dataclass
class ThroughputResult:
    """Summary of one accelerator simulation run."""

    reads: int
    cycles: int
    frequency_hz: float = 1e9

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency_hz

    @property
    def reads_per_second(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.reads / self.seconds

    @property
    def kreads_per_second(self) -> float:
        return self.reads_per_second / 1e3
