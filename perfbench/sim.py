"""``sim_sched``: a serial NvWa design-point sweep on the cycle simulator.

Every point runs ``NvWaAccelerator.run`` on one calibrated
``synthetic_workload(get_dataset("H.s."))``: the default NvWa config,
the SUs+EUs baseline, the uniform-EU variant and three Fig 13(a)
Hits-Buffer depths. No alignment code runs.

The workload is the same in every run (``--seed`` does not change it),
so the modelled numbers must come out identical in every run, not just
in every sweep of one run: they are the reference a simulator-speed
change is checked against. Every sweep's results are compared with
digests pinned below; a change to the model itself must update them.

Two kinds of number come out and are labelled apart: *host* time (how
fast this Python simulator runs, ROADMAP item 7) and *simulated* time
(what the model says the accelerator would do).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import statistics
import time
from dataclasses import replace
from typing import Dict, List, Tuple

import harness
from harness import LayerClock, Result, patched

from repro.core import coordinator
from repro.core.accelerator import NvWaAccelerator
from repro.core.config import NvWaConfig
from repro.core.workload import synthetic_workload
from repro.genome.datasets import get_dataset
from repro.sim.engine import Engine

#: Reads per design point: small enough for ~9 sweeps in a 16 s window,
#: so each point's median and p90 rest on several samples.
POINT_READS = 150
#: CPU time of the speed probe around each point (points take 0.08-0.8 s).
PROBE_CPU_S = 0.01
#: Fig 11's workload seed: one calibrated H.s. workload for every run.
WORKLOAD_SEED = 1
DEPTHS = (128, 512, 2048)
#: Set-ups before the window, and again after it. One takes ~13 ms, so
#: each is scaled to nominal host speed like the window's times, and
#: their median is reported (unscaled medians of 18 moved 30 % between
#: two sets of runs).
SETUP_REPEATS = 20
#: Per-layer metrics of the alignment and serving layers: not run here.
UNMEASURED = ("seeding.*", "chain.*", "extension.*", "sam.*", "service.*",
              "cluster.*", "align.*")

#: Fig 11's cumulative NvWa-over-SUs+EUs speedup: +HUS x +OCRA x +HA.
PAPER_FIG11_FACTORS = (3.32, 1.73, 2.38)

#: SHA-256 of ``repr(_fingerprint(report))`` for each design point on
#: the fixed workload. Any drift in a modelled number fails the run.
PINNED = {
    "nvwa": "b2aff1ad6971d3217718cb2f6d97a3afbd9f2da398fe6bdf0f5ee17462462a6c",
    "sus_eus": "35b10cf3e6b5b9e0430cec1467b04dee0f4f864c3d3150d1c623b1c12a8ba202",
    "uniform": "d02eedd32e782c0598601742afc431221c04433a088d4aa8da26550ac71aebdc",
    "depth128": "dfff808dbc9f3e8b95b6c91cd1666b72a1f3be630effdedff9431e3a5968e6b6",
    "depth512": "d8bed76a7ec51462e84b4198d0a7c4df7896101d045710f5846a90f60f465b40",
    "depth2048": "bd9d0b0fe6bc7b127f68b6e81d001adf02f11cb51d738c5ee891e06131f4753a",
}

_ALLOCATORS = (coordinator.HitsAllocator, coordinator.FIFOAllocator,
               coordinator.PooledAllocator, coordinator.StrictClassAllocator)


def _points() -> List[Tuple[str, NvWaConfig]]:
    base = NvWaConfig()
    points = [("nvwa", base), ("sus_eus", base.baseline_variant()),
              ("uniform", base.uniform_variant())]
    points += [(f"depth{d}", replace(base, hits_buffer_depth=d)) for d in DEPTHS]
    return points


def _setup():
    """Workload and design points, built SETUP_REPEATS times; the last
    build is kept and every build's wall time, at nominal host speed,
    returned."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload = points = None
        gc.collect()
        before = harness.probe_speed(PROBE_CPU_S)
        start = time.perf_counter()
        workload = synthetic_workload(get_dataset("H.s."), POINT_READS,
                                      seed=WORKLOAD_SEED)
        points = _points()
        wall = time.perf_counter() - start
        after = harness.probe_speed(PROBE_CPU_S)
        times.append(wall * (before + after) / 2.0 / harness.NOMINAL_SPEED)
    return workload, points, times


def _fingerprint(report) -> tuple:
    """Every modelled quantity the benchmark reads from one report."""
    return (report.cycles, report.hits_processed,
            tuple(sorted(report.counters.as_dict().items())),
            report.su_utilization, report.eu_utilization,
            report.eu_pe_efficiency,
            report.assignment_quality.overall_fraction())


def _digest(report) -> str:
    return hashlib.sha256(repr(_fingerprint(report)).encode()).hexdigest()


class _Sweeps:
    """Whole sweeps run back to back until the window is spent.

    Each design point's time is scaled to nominal host speed by the
    probe speed measured just before and just after it (see
    ``harness.NOMINAL_SPEED``); the points do fixed work, so the spread
    of one point's scaled times is what the scaling leaves of the host.
    """

    def __init__(self) -> None:
        self.reads = 0
        self.hits = 0
        self.deferred = 0
        self.elapsed = 0.0
        #: wall seconds inside ``NvWaAccelerator.run``, unscaled
        self.busy = 0.0
        self.sweeps = 0
        #: point name -> [(wall seconds, CPU seconds)] per sweep, scaled
        self.times: Dict[str, List[Tuple[float, float]]] = {}
        self.scales: List[float] = []

    def _sweep_s(self, column: int, q: float) -> float:
        return sum(harness.percentile([t[column] for t in times], q)
                   for times in self.times.values())

    @property
    def reads_per_s(self) -> float:
        return harness.ratio(self.reads / self.sweeps, self._sweep_s(0, 0.5))

    @property
    def cpu_s_per_kread(self) -> float:
        return harness.per_kilo(self._sweep_s(1, 0.5), self.reads // self.sweeps)

    def sweep_ms(self, q: float) -> float:
        """Latency of one sweep, summed from each point's ``q``-quantile.

        CPU time: a sweep is serial and CPU-bound, and its wall-time tail
        follows the moments the VM took the vCPU away (the wall p90 moved
        21 % between runs where CPU time moved 4 %).
        """
        return 1000.0 * self._sweep_s(1, q)


def _sweep(workload, points, result: Result,
           tally: _Sweeps) -> Dict[str, object]:
    reports = {}
    before = harness.probe_speed(PROBE_CPU_S)
    for name, config in points:
        wall, cpu = time.perf_counter(), time.process_time()
        report = NvWaAccelerator(config).run(workload)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        after = harness.probe_speed(PROBE_CPU_S)
        scale = (before + after) / 2.0 / harness.NOMINAL_SPEED
        before = after
        tally.busy += wall
        tally.times.setdefault(name, []).append((wall * scale, cpu * scale))
        tally.scales.append(scale)
        reports[name] = report
        tally.reads += report.reads
        tally.hits += report.hits_processed
        tally.deferred += report.counters.get("alloc_deferred")
        result.attempted += 1
        if report.hits_processed != workload.total_hits:
            result.fail(f"{name}: {report.hits_processed} of "
                        f"{workload.total_hits} hits processed")
        elif _digest(report) != PINNED[name]:
            result.fail(f"{name}: modelled results differ from the pinned ones")
    tally.sweeps += 1
    return reports


def _window(workload, points, result: Result, seconds: float) -> _Sweeps:
    tally = _Sweeps()
    began = time.perf_counter()
    while not tally.sweeps or time.perf_counter() - began < seconds:
        _sweep(workload, points, result, tally)
    tally.elapsed = time.perf_counter() - began
    return tally


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Result:
    del workload_name, seed, workdir  # one fixed workload; no files
    result = Result()
    workload, points, setup_times = _setup()
    warm = _sweep(workload, points, result, _Sweeps())
    nvwa, baseline = warm["nvwa"], warm["sus_eus"]

    if not trace:
        # Peak RSS from here on: the window, not the set-up repeats.
        gc.collect()
        harness.reset_peak_rss()
        tally = _window(workload, points, result, seconds)
        rss_mb = harness.peak_rss_mb([os.getpid()])
        # Building again after the window samples the other end of the
        # run as well.
        setup_times += _setup()[2]
        result.put("setup_s", statistics.median(setup_times), "s")
        result.put("reads_per_s", tally.reads_per_s, "reads/s")
        result.put("cpu_s_per_kread", tally.cpu_s_per_kread, "s/kread")
        result.put("p50_ms", tally.sweep_ms(0.5), "ms")
        result.put("p90_ms", tally.sweep_ms(0.9), "ms")
        result.put("rss_mb", rss_mb, "MB")
        speedup = harness.ratio(baseline.cycles, nvwa.cycles)
        result.notes += [
            "every metric above but rss_mb is host time (this simulator "
            "running on this machine) at nominal host speed (median scale "
            f"{statistics.median(tally.scales):.3f}); the operation is one "
            f"sweep of {len(points)} design points, {tally.sweeps} sweeps in "
            "the window; each figure sums the points' median (p90_ms: p90) "
            "times, p50_ms/p90_ms in CPU time; as measured, the window ran "
            f"{tally.reads / tally.elapsed:.1f} reads/s",
            f"simulated: NvWa {nvwa.throughput.kreads_per_second:.1f} kreads/s, "
            f"EU utilization {nvwa.eu_utilization:.4f}, modelled at "
            f"{nvwa.config.frequency_hz / 1e9:g} GHz over {workload.total_hits} "
            "hits (sim.* in the traced run); the model is not validated "
            "against hardware",
            f"simulated speedup {speedup:.2f}x (SUs+EUs cycles / NvWa cycles) "
            "vs the paper's Fig 11 cumulative NvWa-over-SUs+EUs figure "
            + " x ".join(f"{f}" for f in PAPER_FIG11_FACTORS)
            + f" = {math.prod(PAPER_FIG11_FACTORS):.1f}x",
        ]
        return result

    half = seconds / 2.0
    plain = _window(workload, points, result, half)
    clock, events = LayerClock(), [0]
    engine_run = Engine.run

    def counted_run(engine, *args, **kwargs):
        cycle = engine_run(engine, *args, **kwargs)
        events[0] += engine.events_processed
        return cycle

    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(Engine, "run", counted_run))
        for cls in _ALLOCATORS:
            stack.enter_context(patched(
                cls, "allocate", clock.timed("allocator", cls.allocate)))
        traced = _window(workload, points, result, half)

    counters = nvwa.counters
    allocated = counters.get("alloc_allocated")
    result.put("core.host_us_per_hit", 1e6 * plain.busy / plain.hits, "us")
    result.put("core.allocator_share",
               harness.ratio(clock.seconds.get("allocator", 0.0), traced.busy),
               "fraction")
    result.put("core.alloc_deferred_per_hit",
               harness.ratio(plain.deferred, plain.hits), "count")
    result.put("sim.events_per_hit", harness.ratio(events[0], traced.hits), "count")
    result.put("core.alloc_optimal_frac",
               harness.ratio(counters.get("alloc_optimal"), allocated), "fraction")
    result.put("core.allocation_stalls", counters.get("allocation_stalls"), "count")
    result.put("core.su_suspensions", counters.get("su_suspensions"), "count")
    result.put("core.eu_pe_eff", nvwa.eu_pe_efficiency, "fraction")
    result.put("core.su_util", nvwa.su_utilization, "fraction")
    result.put("sim.kreads_per_s", nvwa.throughput.kreads_per_second, "kreads/s")
    result.put("sim.speedup", harness.ratio(baseline.cycles, nvwa.cycles), "ratio")
    result.put("sim.eu_util", nvwa.eu_utilization, "fraction")
    result.notes.append(
        "sim.* and the modelled core.* metrics are simulated, not validated "
        "against hardware; sim.speedup compares with the paper's Fig 11 "
        f"cumulative {math.prod(PAPER_FIG11_FACTORS):.1f}x")
    result.put("bench.trace_overhead_frac",
               harness.overhead_frac(plain.reads_per_s, traced.reads_per_s),
               "fraction")
    return result
