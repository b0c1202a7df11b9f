"""The Extension Scheduler (Sec. IV-C): Allocate Trigger + Hybrid Units
Manager.

The Allocate Trigger "is responsible for checking the execution status of
the EUs and deciding whether to send a scheduling request to the
Coordinator based on the number of idle units"; the Hybrid Units Manager
"receives the scheduling results from the Hits Allocator and distributes
them to the specified EUs". The Hybrid Units Strategy itself (Equation 5)
lives in :mod:`repro.core.hybrid_units` and fixes the EU pool shape at
design time; this module is the runtime half.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.core.coordinator import Placement
from repro.hw.extension_unit import ExtensionUnit


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


class HybridUnitsManager:
    """Runtime view of the EU pool: idle-unit census and dispatch."""

    def __init__(self, units: Sequence[ExtensionUnit]):
        if not units:
            raise ValueError("EU pool must not be empty")
        self._units: Dict[int, ExtensionUnit] = {u.unit_id: u for u in units}
        if len(self._units) != len(units):
            raise ValueError("duplicate EU unit ids")

    @property
    def units(self) -> List[ExtensionUnit]:
        return list(self._units.values())

    def unit(self, unit_id: int) -> ExtensionUnit:
        """Look up one EU by id."""
        try:
            return self._units[unit_id]
        except KeyError:
            raise KeyError(f"unknown EU {unit_id}") from None

    def idle_units(self) -> Dict[int, int]:
        """``unit_id -> pe_count`` of every idle unit (the Coordinator's
        view through the Table III control interface)."""
        return {uid: u.pe_count for uid, u in self._units.items() if u.idle}

    def dispatch(self, placements: Sequence[Placement],
                 now: int) -> List[int]:
        """Start each placement's hit on its unit; returns finish times."""
        finish_times = []
        for placement in placements:
            unit = self._units.get(placement.unit_id)
            if unit is None:
                raise KeyError(f"unknown EU {placement.unit_id}")
            if unit.pe_count != placement.pe_count:
                raise ValueError(
                    f"placement pe_count {placement.pe_count} != unit "
                    f"{placement.unit_id}'s {unit.pe_count}")
            finish_times.append(unit.start(placement.hit, now))
        return finish_times
