"""``pipe_unique`` / ``pipe_repeat``: the in-process ``repro align`` path.

One ``SoftwareAligner.align`` call per read, serial, scalar extension,
index built in-process; each result rendered with ``sam_record``. The
traced run times calls into the aligner's public pipeline steps
(``collect_anchors``, ``build_hits``, ``extend_hit``) by wrapping them on
the instance, so ``align`` itself runs unchanged.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List, Tuple

import harness
import inputs
from harness import LayerClock, Result

from repro.align.pipeline import SoftwareAligner
from repro.align.sam import sam_record

#: Reads generated per run; the timed window cycles through them.
POOL = 1000
WARMUP_READS = 10
SETUP_REPEATS = 3
#: Per-layer metrics of the served path and the simulator: not run here.
UNMEASURED = ("seeding.store_slowdown", "extension.batch_mcells_per_s",
              "service.*", "cluster.*", "core.*", "sim.*")

_MAKERS = {
    "pipe_unique": (inputs.unique_reference, inputs.unique_reads),
    "pipe_repeat": (inputs.repeat_reference, inputs.repeat_reads),
}


def _setup(workload: str):
    """Reference + aligner (index build), timed; the last one is kept.

    Each repeat drops the previous aligner first, so no two indexes are
    alive at once.
    """
    make_reference, _ = _MAKERS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        reference = aligner = None
        gc.collect()
        start = time.perf_counter()
        reference = make_reference()
        aligner = SoftwareAligner(reference)
        times.append(time.perf_counter() - start)
    return reference, aligner, statistics.median(times)


class _Window:
    """One timed pass: per-read latency, SAM lines, work tallies, CPU.

    Per read only the SAM line and a few sums are kept, and alignment
    results only for the fixed recall reads, so the memory the harness
    holds barely depends on how many reads the window reached.
    """

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        #: wall (from the window start) and CPU clock as each read finished
        self.done_at: List[float] = []
        self.cpu_at: List[float] = []
        self.cpu_start = 0.0
        #: (read id, read length, SAM line) per read
        self.sam: List[Tuple[str, int, str]] = []
        #: pool position -> alignment, below inputs.RECALL_READS
        self.recall_results: Dict[int, object] = {}
        #: summed work counters: occ lookups, hits, DP cells, winning cells
        self.tally = {"occ": 0, "hits": 0, "cells": 0, "useful": 0}
        self.sam_s = 0.0
        self.elapsed = 0.0
        #: host speed around the reads; probe time is left out of the
        #: window's wall and CPU clocks
        self.speed = harness.SpeedTrack()

    @property
    def reads_per_s(self) -> float:
        return harness.ratio(len(self.latencies_ms), self.elapsed)

    def keep(self, pos: int, aligned, line: str) -> None:
        self.sam.append((aligned.read.read_id, len(aligned.read.sequence), line))
        if pos < inputs.RECALL_READS:
            self.recall_results.setdefault(pos, aligned)
        tally = self.tally
        tally["occ"] += aligned.work.seeding_accesses
        tally["hits"] += len(aligned.hits)
        tally["cells"] += aligned.work.extension_cells
        if aligned.best is not None:
            tally["useful"] += aligned.best.cells


def _run_window(aligner, reference, reads, start_at: int,
                seconds: float) -> _Window:
    window = _Window()
    speed = window.speed
    clock = time.perf_counter
    window.cpu_start, began = time.process_time(), clock()
    speed.poll(0.0)
    idx = start_at
    while clock() - began - speed.spent_wall < seconds:
        read = reads[idx % len(reads)]
        t0 = clock()
        result = aligner.align(read, idx)
        t1 = clock()
        line = sam_record(result, reference)
        t2 = clock()
        window.sam_s += t2 - t1
        window.latencies_ms.append((t1 - t0) * 1000.0)
        now = t2 - began - speed.spent_wall
        window.done_at.append(now)
        window.cpu_at.append(time.process_time() - speed.spent_cpu)
        window.keep(idx % len(reads), result, line)
        speed.poll(now)
        idx += 1
    window.elapsed = clock() - began - speed.spent_wall
    return window


def _check(window: _Window, reference, result: Result) -> None:
    contigs = {c.name: len(c) for c in reference.chromosomes}
    result.attempted += len(window.sam)
    for read_id, length, line in window.sam:
        problem = harness.sam_problem(line, contigs, length)
        if problem:
            result.fail(f"{read_id}: {problem}")


def _instrument(aligner, clock: LayerClock, counts: Dict[str, int]) -> None:
    """Time the aligner's pipeline steps by wrapping them on the instance."""
    collect = clock.timed("seeding", aligner.collect_anchors)

    def collect_anchors(read_seq, work):
        anchors = collect(read_seq, work)
        counts["anchors"] += len(anchors)
        return anchors

    aligner.collect_anchors = collect_anchors
    aligner.build_hits = clock.timed("chain", aligner.build_hits)
    aligner.extend_hit = clock.timed("extension", aligner.extend_hit)


def _layer_metrics(window: _Window, clock: LayerClock, counts: Dict[str, int],
                   result: Result) -> None:
    reads = len(window.sam)
    align_s = sum(window.latencies_ms) / 1000.0
    seconds = clock.seconds
    share = harness.shares(seconds, align_s)
    tally = window.tally
    ms_per_read = {name: 1000.0 * s / reads for name, s in seconds.items()}
    result.put("seeding.ms_per_read", ms_per_read["seeding"], "ms")
    result.put("seeding.share", share["seeding"], "fraction")
    result.put("seeding.occ_per_read", tally["occ"] / reads, "count")
    result.put("seeding.anchors_per_read", counts["anchors"] / reads, "count")
    result.put("chain.ms_per_read", ms_per_read["chain"], "ms")
    result.put("chain.hits_per_read", tally["hits"] / reads, "count")
    result.put("extension.ms_per_read", ms_per_read["extension"], "ms")
    result.put("extension.share", share["extension"], "fraction")
    result.put("extension.cells_per_read", tally["cells"] / reads, "count")
    result.put("extension.mcells_per_s",
               harness.ratio(tally["cells"], seconds["extension"]) / 1e6, "Mcells/s")
    result.put("extension.useful_cells_frac",
               harness.ratio(tally["useful"], tally["cells"]), "fraction")
    result.put("sam.us_per_read", 1e6 * window.sam_s / reads, "us")


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Result:
    del workdir  # the in-process pipeline writes no files
    result = Result()
    reference, aligner, setup_s = _setup(workload)
    reads = _MAKERS[workload][1](reference, seed, POOL)
    warm = {}
    for idx, read in enumerate(reads[:WARMUP_READS]):
        warm[idx] = aligner.align(read, idx)
        sam_record(warm[idx], reference)

    if not trace:
        # Peak RSS from here on: the window, not the set-up repeats.
        gc.collect()
        harness.reset_peak_rss()
        window = _run_window(aligner, reference, reads, WARMUP_READS, seconds)
        rss_mb = harness.peak_rss_mb([os.getpid()])
        _check(window, reference, result)
        lat = harness.latency_summary(window.latencies_ms)
        figures = harness.window_figures(harness.slice_stats(
            window.done_at, window.latencies_ms, window.cpu_at,
            window.cpu_start, window.speed.over))
        result.put("setup_s", setup_s, "s")
        for name, unit in (("reads_per_s", "reads/s"), ("cpu_s_per_kread", "s/kread"),
                           ("p50_ms", "ms"), ("p90_ms", "ms")):
            result.put(name, figures[name], unit)
        result.put("rss_mb", rss_mb, "MB")
        recall = inputs.recall(aligner, reference, reads,
                               {**window.recall_results, **warm})
        result.notes += [
            f"reads_per_s, cpu_s_per_kread, p50_ms, p90_ms: at nominal host "
            f"speed (median scale {figures['scale']:.3f}); each is the median "
            f"over {harness.SLICES} equal-count slices of {lat['n']} reads; "
            f"as measured over the whole window: {window.reads_per_s:.2f} "
            f"reads/s, p50 {lat['p50']:.2f} ms, p90 {lat['p90']:.2f} ms "
            f"({lat['beyond_p90']} reads beyond it)",
            f"recall {recall:.4f} over reads 0-{inputs.RECALL_READS - 1} "
            f"(align.recall in the traced run)"]
        return result

    half = seconds / 2.0
    plain = _run_window(aligner, reference, reads, WARMUP_READS, half)
    clock, counts = LayerClock(), {"anchors": 0}
    _instrument(aligner, clock, counts)
    traced = _run_window(aligner, reference, reads, WARMUP_READS, half)
    _check(plain, reference, result)
    _check(traced, reference, result)
    _layer_metrics(traced, clock, counts, result)
    # Reads drawn from identical repeat copies tie on score, so on
    # pipe_repeat which copy wins is arbitrary: recall is a per-read
    # coin flip there and says little about accuracy.
    result.put("align.recall", inputs.recall(
        aligner, reference, reads,
        {**traced.recall_results, **plain.recall_results, **warm}), "fraction")
    result.put("bench.trace_overhead_frac",
               harness.overhead_frac(plain.reads_per_s, traced.reads_per_s),
               "fraction")
    return result
