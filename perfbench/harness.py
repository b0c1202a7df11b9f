"""Measurement arithmetic shared by every workload.

Kept free of ``repro`` imports so the self-tests can exercise it without
the program under test: percentiles with their sample counts, the
host-speed probes and the sliced window figures scaled by them,
``/proc`` CPU and peak-RSS parsing across a process tree, per-layer
ratio and share math, method timers for the traced runs, and the
result line the benchmark prints last.
"""

from __future__ import annotations

import contextlib
import fnmatch
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Clock ticks per second for the utime/stime fields of /proc/<pid>/stat.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #

def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default method. Raises on an empty
    sample: a latency with no samples behind it is not a measurement.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-quantile.

    The choosing-metrics rule reports the highest percentile with at
    least ten samples beyond it; p90 needs 100 samples for that.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return count - 1 - math.floor(q * (count - 1)) if count else 0


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p90 of per-operation latencies, with the sample count."""
    return {"p50": percentile(samples_ms, 0.50),
            "p90": percentile(samples_ms, 0.90),
            "n": len(samples_ms),
            "beyond_p90": samples_beyond(len(samples_ms), 0.90)}


# --------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------- #

#: The shared 2-vCPU hosts this benchmark runs on change the speed of
#: each vCPU by up to ~1.5x, in spells of seconds to minutes, and the
#: two vCPUs change independently. A whole run can sit in one spell, so
#: no choice of quantile over a run cancels it (runs of the same code
#: differed by 20-30 %). Every timed figure is therefore stated at a
#: fixed nominal host speed: the work is cut into slices, a fixed
#: pure-Python probe loop (no program code) is timed on the same CPU
#: around each slice, and the slice's times are scaled by probe speed
#: over ``NOMINAL_SPEED``. A program change scales its times the same
#: way whatever the host's speed, and the raw figures are printed too.
PROBE_ITERATIONS = 10_000
#: Probe loops per CPU second the figures are stated at (a round figure
#: a little below the 900-1100 that the 2 GHz Xeon vCPUs the bounds were
#: set on read most of the time).
NOMINAL_SPEED = 800.0
#: CPU time of one probe sample, and window time between two samples.
PROBE_CPU_S = 0.005
PROBE_EVERY_S = 0.25


def probe_speed(cpu_s: float = PROBE_CPU_S) -> float:
    """Probe loops per CPU second of this thread, over ``cpu_s`` CPU.

    CPU time rather than wall time, so a probe that is descheduled
    part-way still measures the speed of the CPU it ran on.
    """
    cpu = time.thread_time
    start, loops = cpu(), 0
    while True:
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        loops += 1
        spent = cpu() - start
        if spent >= cpu_s:
            return loops / spent


class SpeedTrack:
    """Probe samples taken during one window, on the window's clock.

    ``poll`` samples when one is due; the wall and CPU time the probes
    took are kept so the window can leave them out of its own times.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        #: (window time, probe loops per CPU second)
        self.samples: List[Tuple[float, float]] = []
        self.every_s = every_s
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._due = 0.0

    def poll(self, now: float) -> None:
        if now < self._due:
            return
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append((now, probe_speed()))
        self.spent_wall += time.perf_counter() - wall
        self.spent_cpu += time.process_time() - cpu
        self._due = now + self.every_s

    def over(self, t0: float, t1: float) -> float:
        """Mean probe speed in ``[t0, t1]``, else the nearest sample's."""
        return speed_over(self.samples, t0, t1)


class CoreProbes:
    """A probe process pinned to each CPU, for work spread over processes.

    Each samples its CPU's speed every ``every_s`` at the lowest
    priority, so on a busy CPU it takes a small share and its CPU-time
    rate still reads that CPU's speed. Samples carry ``time.monotonic``
    stamps, comparable across processes. Use as a context manager: the
    processes are stopped and waited for on the way out.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        here = os.path.dirname(os.path.abspath(__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import harness; "
                "harness.probe_forever(int(sys.argv[2]), float(sys.argv[3]))")
        self.samples: Dict[int, List[Tuple[float, float]]] = {}
        self._procs = []
        try:
            for cpu in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-c", code, here, str(cpu), str(every_s)],
                    stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        for proc in self._procs:
            proc.terminate()
        for cpu, proc in zip(self.cpus, self._procs):
            out, _ = proc.communicate()
            self.samples[cpu] = [tuple(map(float, line.split()))
                                 for line in out.splitlines() if line.strip()]
        self._procs = []

    def __enter__(self) -> "CoreProbes":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def over(self, t0: float, t1: float) -> float:
        """Mean over the CPUs of each one's speed in ``[t0, t1]``."""
        per_cpu = [speed_over(samples, t0, t1)
                   for samples in self.samples.values() if samples]
        if not per_cpu:
            raise ValueError("no speed samples from any CPU")
        return sum(per_cpu) / len(per_cpu)


def probe_forever(cpu: int, every_s: float) -> None:
    """Body of one ``CoreProbes`` process: ``monotonic speed`` lines."""
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    while True:
        speed = probe_speed()
        print(f"{time.monotonic()!r} {speed!r}", flush=True)
        time.sleep(every_s)


def speed_over(samples: Sequence[Tuple[float, float]], t0: float,
               t1: float) -> float:
    """Mean speed of the ``(time, speed)`` samples in ``[t0, t1]``.

    With none inside, the sample nearest the interval's middle stands
    in; with no samples at all the speed is unknown, an error.
    """
    if not samples:
        raise ValueError("no speed samples")
    inside = [speed for t, speed in samples if t0 <= t <= t1]
    if inside:
        return sum(inside) / len(inside)
    middle = (t0 + t1) / 2.0
    return min(samples, key=lambda sample: abs(sample[0] - middle))[1]


# --------------------------------------------------------------------- #
# Slices of a window
# --------------------------------------------------------------------- #

SLICES = 32


def slice_stats(done_at: Sequence[float], latencies_ms: Sequence[float],
                cpu_at: Sequence[float], cpu_start: float,
                speed: Callable[[float, float], float],
                slices: int = SLICES) -> List[Dict[str, float]]:
    """Reads/s, CPU-s per 1000 reads, p50 and p90 per slice, at nominal speed.

    The operations of a window are cut into ``slices`` runs of equal
    count. ``done_at[i]`` is when operation ``i`` finished (seconds
    from the window start, ascending) and ``cpu_at[i]`` the CPU clock
    then; ``cpu_start`` is the CPU clock at the start. ``speed(t0, t1)``
    is the host's probe speed over a stretch of the window; each
    slice's figures are scaled from it to ``NOMINAL_SPEED``, and
    ``scale`` is the factor its times were multiplied by.
    """
    count = len(done_at)
    bounds = [round(k * count / slices) for k in range(slices + 1)]
    out: List[Dict[str, float]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        began = done_at[lo - 1] if lo else 0.0
        scale = speed(began, done_at[hi - 1]) / NOMINAL_SPEED
        wall = (done_at[hi - 1] - began) * scale
        cpu = (cpu_at[hi - 1] - (cpu_at[lo - 1] if lo else cpu_start)) * scale
        lat = [ms * scale for ms in latencies_ms[lo:hi]]
        out.append({"reads_per_s": ratio(hi - lo, wall),
                    "cpu_s_per_kread": per_kilo(cpu, hi - lo),
                    "p50_ms": percentile(lat, 0.5),
                    "p90_ms": percentile(lat, 0.9),
                    "n": hi - lo,
                    "scale": scale})
    return out


def round_stats(done_at: Sequence[float], latencies_ms: Sequence[float],
                cpu_at: Sequence[float], in_flight: int,
                speed: Callable[[float, float], float]) -> List[Dict[str, float]]:
    """Per-round slices of a closed-loop window with ``in_flight`` clients.

    The completions (in completion order, ``done_at`` ascending) are cut
    into runs of ``in_flight``: one turn of the loop each. The first run
    is the ramp to ``in_flight`` outstanding requests and is left out,
    and so is a last partial run; each round is timed from the end of
    the one before. ``cpu_at[i]`` is the system's CPU clock at
    completion ``i``; ``speed`` takes window times, as ``done_at``.
    """
    n = in_flight
    whole = (len(done_at) - n) // n * n
    if whole <= 0:
        raise ValueError(f"{len(done_at)} completions hold no whole round "
                         f"after the first {n}")
    start = done_at[n - 1]
    return slice_stats([t - start for t in done_at[n:n + whole]],
                       latencies_ms[n:n + whole], cpu_at[n:n + whole],
                       cpu_at[n - 1], lambda t0, t1: speed(t0 + start, t1 + start),
                       slices=whole // n)


def window_figures(slices: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The reported figures of a sliced window, at nominal speed.

    Each is the median over the slices, p90 included: a whole-window
    p90 follows the few seconds in which the host stalled (it moved
    16-18 % between runs where the slice medians moved under 8 %).
    ``n`` is the operation count behind them.
    """
    figures = {name: statistics.median(s[name] for s in slices)
               for name in ("reads_per_s", "cpu_s_per_kread", "p50_ms", "p90_ms",
                            "scale")}
    figures["n"] = sum(s["n"] for s in slices)
    return figures


# --------------------------------------------------------------------- #
# Ratio and share math
# --------------------------------------------------------------------- #

def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; a zero base is a harness error."""
    if denominator == 0:
        raise ZeroDivisionError("ratio with a zero base")
    return numerator / denominator


def per_kilo(total: float, count: int) -> float:
    """``total`` per 1000 items (CPU-s/kread and the like)."""
    return 1000.0 * ratio(total, count)


def shares(parts: Dict[str, float], total: float) -> Dict[str, float]:
    """Each part as a fraction of ``total`` (parts need not cover it)."""
    if total <= 0:
        raise ValueError(f"share of a non-positive total {total}")
    return {name: value / total for name, value in parts.items()}


def overhead_frac(untraced_rate: float, traced_rate: float) -> float:
    """Throughput the tracing cost: 1 - traced / untraced."""
    return 1.0 - ratio(traced_rate, untraced_rate)


# --------------------------------------------------------------------- #
# /proc: CPU time and peak RSS across a process tree
# --------------------------------------------------------------------- #

def parse_stat(text: str) -> Tuple[int, float]:
    """``(ppid, cpu_seconds)`` from one ``/proc/<pid>/stat`` line.

    The command name (field 2) may contain spaces and parentheses, so
    the remaining fields are split after the *last* ``)``. CPU is
    utime + stime of the process itself; children are counted by
    walking the tree, not through cutime/cstime (those only appear once
    a child is reaped).
    """
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); ppid is field 4, utime/stime 14/15.
    ppid = int(rest[1])
    utime, stime = int(rest[11]), int(rest[12])
    return ppid, (utime + stime) / CLOCK_TICKS


def parse_vmhwm_mb(status: str) -> float:
    """Peak resident set (``VmHWM``) in MB from ``/proc/<pid>/status``."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected VmHWM unit {unit!r}")
            return int(value) / 1024.0
    raise ValueError("no VmHWM line in status")


def reset_peak_rss(pid: str = "self", proc: str = "/proc") -> None:
    """Restart ``VmHWM`` at the current RSS (Linux ``clear_refs`` 5)."""
    with open(os.path.join(proc, str(pid), "clear_refs"), "w",
              encoding="ascii") as handle:
        handle.write("5")


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            return handle.read()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None


def descendants(root: int, parents: Dict[int, int]) -> List[int]:
    """``root`` and every process below it, given a pid -> ppid map."""
    children: Dict[int, List[int]] = {}
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return sorted(tree)


def process_tree(root: int, proc: str = "/proc") -> List[int]:
    """Live pids of ``root`` and its descendants."""
    parents: Dict[int, int] = {}
    for name in os.listdir(proc):
        if not name.isdigit():
            continue
        text = _read(os.path.join(proc, name, "stat"))
        if text:
            parents[int(name)] = parse_stat(text)[0]
    if root not in parents:
        return []
    return descendants(root, parents)


def alive(pid: int, proc: str = "/proc") -> bool:
    """True while ``pid`` exists and is neither a zombie nor dead."""
    text = _read(os.path.join(proc, str(pid), "stat"))
    return bool(text) and text[text.rindex(")") + 2] not in "ZX"


def cpu_seconds(pids: Iterable[int], proc: str = "/proc") -> Dict[int, float]:
    """CPU seconds so far of each pid still alive."""
    out: Dict[int, float] = {}
    for pid in pids:
        text = _read(os.path.join(proc, str(pid), "stat"))
        if text:
            out[pid] = parse_stat(text)[1]
    return out


def peak_rss_mb(pids: Iterable[int], proc: str = "/proc") -> float:
    """Sum of VmHWM over the pids still alive."""
    total = 0.0
    for pid in pids:
        text = _read(os.path.join(proc, str(pid), "status"))
        if text:
            total += parse_vmhwm_mb(text)
    return total


# --------------------------------------------------------------------- #
# SAM structure
# --------------------------------------------------------------------- #

_CIGAR_OPS = "MIDNSHP=X"
_QUERY_OPS = "MIS=X"
_REF_OPS = "MDN=X"


def parse_cigar(cigar: str) -> List[Tuple[int, str]]:
    """``"5S96M"`` -> ``[(5, "S"), (96, "M")]``; raises on malformed input."""
    ops, digits = [], ""
    for char in cigar:
        if char.isdigit():
            digits += char
        elif char in _CIGAR_OPS and digits:
            ops.append((int(digits), char))
            digits = ""
        else:
            raise ValueError(f"malformed CIGAR {cigar!r}")
    if digits or not ops:
        raise ValueError(f"malformed CIGAR {cigar!r}")
    return ops


def sam_problem(line: str, contigs: Dict[str, int],
                read_length: int) -> Optional[str]:
    """Why a SAM record is structurally invalid, or None if it is valid.

    A mapped record's CIGAR must consume exactly the read and its
    reference span must lie inside the named contig; an unmapped record
    carries ``*`` for both.
    """
    fields = line.split("\t")
    if len(fields) < 11:
        return f"{len(fields)} fields"
    flag, rname, pos, cigar, sequence = (int(fields[1]), fields[2],
                                         int(fields[3]), fields[5], fields[9])
    if len(sequence) != read_length:
        return f"SEQ length {len(sequence)} != read length {read_length}"
    if flag & 0x4:
        return None if (rname, cigar) == ("*", "*") else "unmapped with a locus"
    if rname not in contigs:
        return f"unknown contig {rname!r}"
    try:
        ops = parse_cigar(cigar)
    except ValueError as exc:
        return str(exc)
    consumed = sum(n for n, op in ops if op in _QUERY_OPS)
    if consumed != read_length:
        return f"CIGAR {cigar} consumes {consumed} of {read_length} bases"
    span = sum(n for n, op in ops if op in _REF_OPS)
    if pos < 1 or pos + span - 1 > contigs[rname]:
        return f"span {pos}+{span} outside {rname} ({contigs[rname]} bp)"
    return None


# --------------------------------------------------------------------- #
# Layer timers (traced runs only)
# --------------------------------------------------------------------- #

class LayerClock:
    """Accumulated wall seconds per layer name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def add(self, layer: str, elapsed: float) -> None:
        self.seconds[layer] = self.seconds.get(layer, 0.0) + elapsed

    def timed(self, layer: str, func: Callable) -> Callable:
        """``func`` wrapped so each call adds its duration to ``layer``."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(layer, clock() - start)
        return wrapper


@contextlib.contextmanager
def patched(owner: object, name: str, replacement: object) -> Iterator[None]:
    """Set ``owner.name`` for the block and restore the original after."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


# --------------------------------------------------------------------- #
# Run isolation and the result line
# --------------------------------------------------------------------- #

@contextlib.contextmanager
def private_dir(root: str, prefix: str) -> Iterator[str]:
    """A fresh directory under ``root``, removed when the block exits."""
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Result:
    """Outcome of one run: metric values, counts and the output check."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = (float(value), unit)

    def fail(self, problem: str, count: int = 1) -> None:
        """Record ``count`` failed operations and why (first few kept)."""
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def fill_unmeasured(self, wanted: Dict[str, str],
                        patterns: Sequence[str]) -> List[str]:
        """Put 0 for each wanted metric the workload does not measure.

        ``wanted`` maps the manifest's metric names to units; a missing
        name is filled only if it matches one of ``patterns`` (shell
        globs), the metrics of layers the workload does not run or
        cannot see. Returns the names filled.
        """
        filled = [name for name in wanted
                  if name not in self.metrics
                  and any(fnmatch.fnmatchcase(name, p) for p in patterns)]
        for name in filled:
            self.put(name, 0.0, wanted[name])
        return filled

    def mismatch(self, wanted: Dict[str, str]) -> Optional[str]:
        """How the metrics differ from ``wanted`` (name -> unit), or None."""
        got = {name: unit for name, (_, unit) in self.metrics.items()}
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(name for name in set(got) & set(wanted)
                       if got[name] != wanted[name])
        if not (missing or extra or units):
            return None
        return f"missing {missing}, unexpected {extra}, wrong unit {units}"

    def line(self) -> str:
        """The JSON object the benchmark prints as its last line."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }, sort_keys=False)
