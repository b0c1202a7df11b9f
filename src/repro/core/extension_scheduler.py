"""The Extension Scheduler (Sec. IV-C): the Allocate Trigger.

The Allocate Trigger "is responsible for checking the execution status of
the EUs and deciding whether to send a scheduling request to the
Coordinator based on the number of idle units". Its one input is the idle
EU count, which the simulator reads off its per-class idle-unit heaps
(:func:`repro.core.coordinator.idle_heaps`). The Hybrid Units Manager,
which "receives the scheduling results from the Hits Allocator and
distributes them to the specified EUs", is the dispatch loop of
``_Simulation.pump_allocation`` in :mod:`repro.core.accelerator`: it starts
each placed hit on its EU and records the busy interval. The Hybrid Units
Strategy itself (Equation 5) lives in :mod:`repro.core.hybrid_units` and
fixes the EU pool shape at design time.
"""

from __future__ import annotations

import math


class AllocateTrigger:
    """Requests an allocation round once enough EUs sit idle.

    Args:
        num_units: EU pool size.
        idle_fraction: trigger threshold (paper example: 15 %).
    """

    def __init__(self, num_units: int, idle_fraction: float = 0.15):
        if num_units <= 0:
            raise ValueError(f"num_units must be positive, got {num_units}")
        if not 0.0 <= idle_fraction <= 1.0:
            raise ValueError(
                f"idle_fraction must be in [0, 1], got {idle_fraction}")
        self.num_units = num_units
        self.threshold = max(1, math.ceil(idle_fraction * num_units))

    def should_request(self, idle: int) -> bool:
        """True when ``idle`` idle EUs warrant a request to the Coordinator."""
        if not 0 <= idle <= self.num_units:
            raise ValueError(f"{idle} idle EUs outside [0, {self.num_units}]")
        return idle >= self.threshold
