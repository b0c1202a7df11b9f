"""Cycle-level simulation substrate: engine, memory models, SPM, stats."""

from repro.sim.engine import Engine, SimulationError
from repro.sim.memory import DDR4, HBM_1_0, MemoryModel, MemorySpec, MemoryStats
from repro.sim.spm import Scratchpad, SPMStats
from repro.sim.memory_detailed import (
    Completion,
    DetailedMemory,
    Request,
    observed_parallelism,
    observed_row_hit_fraction,
)
from repro.sim.trace import ExecutionTrace, TraceEvent
from repro.sim.stats import CounterSet, ThroughputResult, UtilizationTrace

__all__ = [
    "Engine", "SimulationError",
    "DDR4", "HBM_1_0", "MemoryModel", "MemorySpec", "MemoryStats",
    "Scratchpad", "SPMStats",
    "Completion", "DetailedMemory", "Request", "observed_parallelism",
    "observed_row_hit_fraction",
    "ExecutionTrace", "TraceEvent",
    "CounterSet", "ThroughputResult", "UtilizationTrace",
]
