"""The Hybrid Units Strategy (Sec. IV-C, Fig 9, Equations 4-5).

Given a hit-length distribution and a PE budget, size a mix of EU classes
so that each length interval gets units matched to its latency optimum:

    sum_i x_i * p_i = N
    x_0 : x_1 : ... = s_0 : s_1 : ...        (Equation 4)
    =>  x_i = s_i * N / sum_j (p_j * s_j)    (Equation 5)

with an integer repair pass so the PE budget is met exactly. The module
also reproduces the Fig 9(d) toy comparison: executing a hit list on a
uniform pool vs the hybrid pool with greedy shortest-latency placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.extension.systolic import matrix_fill_latency


def solve_unit_mix(interval_mass: Sequence[float], pe_classes: Sequence[int],
                   total_pes: int) -> Dict[int, int]:
    """Equation 5 with integer repair: PE class -> unit count.

    The real-valued solution is floored (keeping ≥1 unit for any interval
    with mass), then leftover PEs are handed to the classes with the
    largest fractional remainder, smallest classes first on ties, without
    exceeding the budget. The result satisfies sum(x_i * p_i) <= N with a
    shortfall smaller than the largest class.
    """
    if len(interval_mass) != len(pe_classes):
        raise ValueError(
            f"{len(interval_mass)} interval masses vs {len(pe_classes)} classes")
    if any(m < 0 for m in interval_mass) or sum(interval_mass) <= 0:
        raise ValueError("interval mass must be non-negative and non-zero")
    if any(p <= 0 for p in pe_classes):
        raise ValueError("PE classes must be positive")
    if total_pes < max(pe_classes):
        raise ValueError(
            f"budget {total_pes} cannot fit the largest class "
            f"{max(pe_classes)}")

    denom = sum(p * s for p, s in zip(pe_classes, interval_mass))
    exact = [s * total_pes / denom for s in interval_mass]
    counts = {p: int(x) for p, x in zip(pe_classes, exact)}
    for p, s in zip(pe_classes, interval_mass):
        if s > 0 and counts[p] == 0:
            counts[p] = 1

    # Spend any remaining budget by fractional remainder, largest first.
    def used() -> int:
        return sum(p * c for p, c in counts.items())

    remainders = sorted(zip(pe_classes, exact),
                        key=lambda pc: (pc[1] - int(pc[1])), reverse=True)
    progress = True
    while progress:
        progress = False
        for p, _ in remainders:
            if used() + p <= total_pes:
                counts[p] += 1
                progress = True
    # Trim any overshoot introduced by the ≥1 floor.
    while used() > total_pes:
        victim = max((p for p, c in counts.items() if c > 1), default=None)
        if victim is None:
            break
        counts[victim] -= 1
    return counts


def paper_unit_mix() -> Dict[int, int]:
    """The published design point: x = (28, 20, 16, 6) over (16,32,64,128).

    Derived from Equation 5 with the NA12878 interval mass and N = 2880;
    kept as an explicit constant so tests can pin the exact paper numbers.
    """
    return {16: 28, 32: 20, 64: 16, 128: 6}


@dataclass(frozen=True)
class PoolExecution:
    """Outcome of executing a hit list on a unit pool (Fig 9(d))."""

    makespan: int
    per_hit_latency: Dict[int, int]
    per_hit_unit: Dict[int, int]


def execute_on_pool(hit_lengths: Sequence[int], unit_pes: Sequence[int],
                    ref_pad: int = 0, load_overhead: int = 0,
                    policy: str = "greedy") -> PoolExecution:
    """List scheduling of hits onto a pool of systolic units (Fig 9(d)).

    Policies:
        ``greedy`` — each hit (in order) takes the unit minimising its
            completion time; with identical units this degenerates to the
            earliest-free FIFO flow of the figure's uniform pool.
        ``ranked`` — sorted hits map to sorted units by rank (the figure's
            hybrid flow, where all five hits load onto the five units at
            once); falls back to greedy when counts differ.

    ``load_overhead`` models the one-cycle load of the figure's timeline
    (hits start at cycle 1, not 0).
    """
    if not unit_pes:
        raise ValueError("pool must contain at least one unit")
    if policy not in ("greedy", "ranked"):
        raise ValueError(f"unknown policy {policy!r}")
    if any(length <= 0 for length in hit_lengths):
        raise ValueError("hit lengths must be positive")

    free_at = [0] * len(unit_pes)
    per_hit_latency: Dict[int, int] = {}
    per_hit_unit: Dict[int, int] = {}

    if policy == "ranked" and len(hit_lengths) == len(unit_pes):
        hit_rank = sorted(range(len(hit_lengths)),
                          key=lambda i: hit_lengths[i])
        unit_rank = sorted(range(len(unit_pes)), key=lambda u: unit_pes[u])
        for hit_idx, unit_idx in zip(hit_rank, unit_rank):
            length = hit_lengths[hit_idx]
            latency = matrix_fill_latency(length + ref_pad, length,
                                          unit_pes[unit_idx])
            free_at[unit_idx] = load_overhead + latency
            per_hit_latency[hit_idx] = latency
            per_hit_unit[hit_idx] = unit_idx
        return PoolExecution(makespan=max(free_at),
                             per_hit_latency=per_hit_latency,
                             per_hit_unit=per_hit_unit)

    for hit_idx, length in enumerate(hit_lengths):
        # Choose the unit minimising completion time, breaking ties toward
        # the lowest-latency (best-matched) unit.
        best = None
        for unit_idx, pe in enumerate(unit_pes):
            latency = matrix_fill_latency(length + ref_pad, length, pe)
            start = free_at[unit_idx] + load_overhead
            key = (start + latency, latency, unit_idx)
            if best is None or key < best[0]:
                best = (key, unit_idx, latency, start)
        _, unit_idx, latency, start = best
        free_at[unit_idx] = start + latency
        per_hit_latency[hit_idx] = latency
        per_hit_unit[hit_idx] = unit_idx
    return PoolExecution(makespan=max(free_at),
                         per_hit_latency=per_hit_latency,
                         per_hit_unit=per_hit_unit)
