"""NvWa core: schedulers, Coordinator, configuration, accelerator model."""

from repro.core.interface import (
    EUControl,
    ExtensionResult,
    Hit,
    ReadDescriptor,
    SUControl,
    UnitState,
)
from repro.core.config import (
    PAPER_CONFIG,
    PAPER_EU_CONFIG,
    PAPER_TOTAL_PES,
    NvWaConfig,
)
from repro.core.allocator import (
    AllocationResult,
    OneCycleReadAllocator,
    ReadInBatchAllocator,
)
from repro.core.hybrid_units import (
    PoolExecution,
    execute_on_pool,
    paper_unit_mix,
    solve_unit_mix,
)
from repro.core.coordinator import (
    EUGroup,
    FIFOAllocator,
    HitsAllocator,
    HitsBuffer,
    Placement,
    PooledAllocator,
    StrictClassAllocator,
    build_groups,
    idle_heaps,
    split_thresholds,
)
from repro.core.seeding_scheduler import ScheduledLoad, SeedingScheduler
from repro.core.extension_scheduler import AllocateTrigger
from repro.core.workload import (
    HitTask,
    ReadTask,
    Workload,
    hit_extension_span,
    synthetic_workload,
    workload_from_pipeline,
)

# The accelerator (and its baseline constructors) depend on repro.hw, whose
# unit models import the leaf modules above; loading them lazily (PEP 562)
# keeps `import repro.core.interface` from recursing through repro.hw.
_LAZY = {
    "AssignmentQuality": ("repro.core.accelerator", "AssignmentQuality"),
    "ExtensionOutput": ("repro.core.accelerator", "ExtensionOutput"),
    "NvWaAccelerator": ("repro.core.accelerator", "NvWaAccelerator"),
    "SimulationReport": ("repro.core.accelerator", "SimulationReport"),
    "baseline": ("repro.core", "baseline"),
}


def __getattr__(name):
    if name in _LAZY:
        import importlib
        module_name, attr = _LAZY[name]
        if attr == "baseline":
            value = importlib.import_module("repro.core.baseline")
        else:
            value = getattr(importlib.import_module(module_name), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")

__all__ = [
    "EUControl", "ExtensionResult", "Hit", "ReadDescriptor", "SUControl",
    "UnitState",
    "PAPER_CONFIG", "PAPER_EU_CONFIG", "PAPER_TOTAL_PES", "NvWaConfig",
    "AllocationResult", "OneCycleReadAllocator", "ReadInBatchAllocator",
    "PoolExecution", "execute_on_pool", "paper_unit_mix", "solve_unit_mix",
    "EUGroup", "FIFOAllocator", "HitsAllocator", "HitsBuffer", "Placement",
    "PooledAllocator", "StrictClassAllocator",
    "build_groups", "idle_heaps", "split_thresholds",
    "ScheduledLoad", "SeedingScheduler",
    "AllocateTrigger",
    "HitTask", "ReadTask", "Workload", "hit_extension_span",
    "synthetic_workload", "workload_from_pipeline",
    "AssignmentQuality", "NvWaAccelerator", "SimulationReport",
    "baseline",
]
