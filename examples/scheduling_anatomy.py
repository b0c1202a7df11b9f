#!/usr/bin/env python3
"""Scenario: dissect the three NvWa scheduling mechanisms one by one.

An architecture walk-through for readers of the paper: each section
exercises one mechanism in isolation with the paper's own toy inputs and
shows the numbers the figures report.

Run:  python examples/scheduling_anatomy.py
"""

from repro.core import (
    HitsAllocator,
    HitTask,
    NvWaAccelerator,
    OneCycleReadAllocator,
    baseline,
    execute_on_pool,
    idle_heaps,
    paper_unit_mix,
    solve_unit_mix,
    synthetic_workload,
)
from repro.genome import NA12878_INTERVAL_MASS, get_dataset
from repro.hw import PopCountTree


def seeding_scheduler() -> None:
    print("=== Mechanism 1: One-Cycle Read Allocator (Fig 5/6) ===")
    allocator = OneCycleReadAllocator(num_units=4, total_reads=100)
    print("cycle T0: all four SUs idle ->",
          allocator.allocate([0, 0, 0, 0]).assignments)
    print("cycle T1+2: units 1,2 idle   ->",
          allocator.allocate([1, 0, 0, 1]).assignments,
          "(the paper's toy: reads 4 and 5)")
    tree = PopCountTree(128)
    print(f"PopCount tree for 128 SUs: depth {tree.depth}, "
          f"~{tree.delay_ps:.0f} ps -> one cycle at 1 GHz: "
          f"{tree.meets_frequency(1e9)}")


def extension_scheduler() -> None:
    print("\n=== Mechanism 2: Hybrid Units Strategy (Fig 9, Eq 5) ===")
    mix = solve_unit_mix(NA12878_INTERVAL_MASS, (16, 32, 64, 128), 2880)
    print(f"Equation 5 over the NA12878 demand mass: {mix}")
    print(f"paper's published mix:                   {paper_unit_mix()}")
    hits = (20, 40, 10, 65, 127)
    uniform = execute_on_pool(hits, [64] * 4, load_overhead=1)
    hybrid = execute_on_pool(hits, [16, 16, 32, 64, 128], load_overhead=1,
                             policy="ranked")
    print(f"Fig 9(d) toy hits {hits}: uniform pool {uniform.makespan} "
          f"cycles vs hybrid pool {hybrid.makespan} cycles "
          f"(paper: 455 vs 257)")


def coordinator() -> None:
    print("\n=== Mechanism 3: Coordinator greedy allocation (Fig 10) ===")
    allocator = HitsAllocator((16, 32, 64, 128))
    batch = [HitTask(0, i, length, length + 8)
             for i, length in enumerate((7, 29, 40, 103))]
    idle = idle_heaps({0: 16, 1: 32, 2: 64, 3: 128})
    placements, deferred = allocator.allocate(batch, idle)
    for p in placements:
        tag = "optimal" if p.optimal else "sub-optimal"
        print(f"hit_len {p.hit.hit_len:>3} -> {p.pe_count:>3}-PE unit "
              f"({tag})")
    for hit in deferred:
        print(f"hit_len {hit.hit_len:>3} -> deferred (written back at the "
              f"PB offset, retried next round)")


def end_to_end() -> None:
    print("\n=== All three together: the Fig 11 ablation ladder ===")
    workload = synthetic_workload(get_dataset("H.s."), 1200, seed=31)
    previous = None
    for name, config in baseline.ablation_ladder().items():
        report = NvWaAccelerator(config).run(workload)
        step = f"  (+{previous / report.cycles:.2f}x)" if previous else ""
        previous = report.cycles
        print(f"{name:<12} {report.cycles:>9,} cycles"
              f"  SU {report.su_utilization:.0%}"
              f"  EU {report.eu_utilization:.0%}{step}")


def main() -> None:
    seeding_scheduler()
    extension_scheduler()
    coordinator()
    end_to_end()


if __name__ == "__main__":
    main()
