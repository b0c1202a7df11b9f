"""Figure 5: Read-in-Batch vs One-Cycle scheduling on a toy SU pool.

The figure walks four SUs through a stream of reads with diverse execution
times: under Read-in-Batch, units that finish early idle until the slowest
unit of the batch completes; under the One-Cycle strategy every idle unit
is refilled the cycle it frees.

We replay that flow exactly with the two allocators and event-driven unit
completion, reporting total cycles and SU utilization for each strategy.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence

from repro.core.allocator import OneCycleReadAllocator, ReadInBatchAllocator
from repro.experiments.common import ExperimentResult

#: Per-read seeding durations of the toy (diverse, as in the figure).
TOY_DURATIONS = (9, 4, 7, 4, 6, 3, 8, 5, 4, 6, 3, 7)


def simulate_strategy(durations: Sequence[int], num_units: int,
                      use_one_cycle: bool) -> Dict[str, float]:
    """Event-driven replay of one strategy; returns cycles + utilization."""
    if num_units <= 0:
        raise ValueError("num_units must be positive")
    total = len(durations)
    if use_one_cycle:
        allocator = OneCycleReadAllocator(num_units, total)
    else:
        allocator = ReadInBatchAllocator(num_units, total)

    busy_until = [0] * num_units
    status = [0] * num_units
    busy_cycles = 0
    now = 0
    events: List[int] = []
    while True:
        result = allocator.allocate(status)
        for unit, read_idx in result.assignments.items():
            duration = durations[read_idx]
            busy_until[unit] = now + 1 + duration  # 1-cycle load
            busy_cycles += duration
            status[unit] = 1
            heapq.heappush(events, busy_until[unit])
        if not events:
            break
        now = heapq.heappop(events)
        while events and events[0] == now:
            heapq.heappop(events)
        for unit in range(num_units):
            if status[unit] == 1 and busy_until[unit] <= now:
                status[unit] = 0
        if allocator.exhausted and not any(status):
            break
    makespan = max(busy_until)
    return {"cycles": makespan,
            "utilization": busy_cycles / (makespan * num_units)}


def run(durations: Sequence[int] = TOY_DURATIONS,
        num_units: int = 4) -> ExperimentResult:
    """Regenerate Fig 5's comparison on the toy read stream."""
    batch = simulate_strategy(durations, num_units, use_one_cycle=False)
    one_cycle = simulate_strategy(durations, num_units, use_one_cycle=True)
    rows = [
        {"strategy": "Read-in-Batch (Fig 5a)",
         "cycles": batch["cycles"],
         "su_utilization": round(batch["utilization"], 3)},
        {"strategy": "One-Cycle (Fig 5b)",
         "cycles": one_cycle["cycles"],
         "su_utilization": round(one_cycle["utilization"], 3)},
    ]
    return ExperimentResult(
        exhibit="Figure 5",
        title="Read-in-Batch vs One-Cycle scheduling strategy (toy)",
        rows=rows,
        paper={"observation": "Read-in-Batch leaves SUs idle between "
                              "batches; One-Cycle refills idle units "
                              "immediately"},
        notes=f"one-cycle speedup on the toy stream: "
              f"{batch['cycles'] / one_cycle['cycles']:.2f}x",
    )
