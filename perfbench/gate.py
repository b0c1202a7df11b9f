"""``gate_unique``: the ``pipe_unique`` reads served through ``repro cluster``.

The fleet is one shard x two replicas (one per CPU of a 2-CPU machine),
one engine worker per backend, every other setting at the program's
default, including the 50 ms hedge: duplicate backend work is measured,
not configured away. The replicas attach one index store built by
``repro.seeding.store``.

Load comes from this process: one asyncio connection, closed loop, a
fixed window of reads in flight, because the clients are alignment jobs
that keep a window outstanding. Only the gateway and backend processes
count as the system under test; their CPU and peak RSS come from
``/proc``, the layer counters from the gateway's ``stats`` verb.
Reads/s, CPU-s per 1000 reads, p50 and p90 are medians over the window's
rounds (``harness.round_stats``), each round scaled to nominal host
speed by a probe pinned to each CPU (``harness.CoreProbes``): the fleet
spreads over every CPU, so no single in-process probe sees its speed.

Every response's SAM must be byte-identical to the in-process
pipeline's record for that read (the served-equals-offline invariant);
the reference records are computed after the timed windows.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import harness
import inputs
from harness import Result

from repro.align.pipeline import PhaseWork, SoftwareAligner
from repro.align.sam import sam_record
from repro.genome import sequence as seq
from repro.genome.io import write_fasta
from repro.runtime.batch import smith_waterman_batch
from repro.seeding.store import IndexStore, build_index_store
from repro.service.client import AsyncServiceClient, ServiceError

FLEET_ARGS = ("--shards", "1", "--replicas", "2", "--workers", "1")
IN_FLIGHT = 8
POOL = 600
WARMUP_READS = 16
SETUP_REPEATS = 3
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0
#: Niceness of the load generator once the fleet is up, so that on a
#: machine with as many CPUs as backends it yields to the system under
#: test instead of taking turns with it.
LOADGEN_NICE = 10
#: Reads behind the in-process probes (store slowdown, batch kernel).
PROBE_READS = 40
#: Per-layer metrics this workload cannot see: the pipeline steps run
#: inside the backend processes, and nothing is simulated.
UNMEASURED = ("seeding.ms_per_read", "seeding.share", "seeding.occ_per_read",
              "seeding.anchors_per_read", "chain.*", "extension.ms_per_read",
              "extension.share", "extension.cells_per_read",
              "extension.mcells_per_s", "extension.useful_cells_frac",
              "sam.*", "core.*", "sim.*")


class Fleet:
    """One ``repro cluster`` process tree, started and stopped by us."""

    def __init__(self, src: str, workdir: str, reference_path: str,
                 index_path: str) -> None:
        self.workdir = workdir
        self.endpoint = ""
        env = dict(os.environ, PYTHONPATH=src, TMPDIR=workdir)
        self.log_path = os.path.join(workdir, "cluster.log")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster",
                 "--reference", reference_path, "--index", index_path,
                 *FLEET_ARGS, "--port", "0",
                 "--workdir", os.path.join(workdir, "fleet")],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, start_new_session=True)
        self.pids: List[int] = []

    def state(self) -> Dict:
        with open(os.path.join(self.workdir, "fleet", "cluster.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)

    def wait_ready(self) -> None:
        """Block until the gateway answers a ping; record the pid tree.

        The gateway binds an ephemeral port and publishes it in
        ``cluster.json`` once it is listening.
        """
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"cluster exited with {self.process.returncode}"
                                   f"; see {self.log_path}")
            try:
                self.endpoint = self.state()["gateway"]["endpoint"]
            except FileNotFoundError:
                pass
            if self.endpoint and asyncio.run(_ping(self.endpoint)):
                self.pids = harness.process_tree(self.process.pid)
                return
            time.sleep(0.05)
        raise RuntimeError(f"cluster not ready in {READY_TIMEOUT_S}s")

    def backend_pids(self) -> List[int]:
        return [b["pid"] for b in self.state()["backends"]]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole tree is gone."""
        pids = self.pids or harness.process_tree(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in pids:
            while harness.alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if harness.alive(pid):
                os.kill(pid, signal.SIGKILL)


async def _ping(endpoint: str) -> bool:
    try:
        client = await AsyncServiceClient.connect_endpoint(endpoint, timeout_s=2.0)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        return False
    try:
        return await asyncio.wait_for(client.ping(), 2.0)
    except (ConnectionError, OSError, asyncio.TimeoutError, ServiceError):
        return False
    finally:
        await client.close()


class _Window:
    """One closed-loop window: latencies and every response."""

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        #: completion time (seconds from the window start) and fleet CPU
        #: seconds then, per request in completion order
        self.done_at: List[float] = []
        self.cpu_at: List[float] = []
        #: (read index, SAM lines or None, error code or None)
        self.outcomes: List[Tuple[int, Optional[List[str]], Optional[str]]] = []
        self.elapsed = 0.0
        #: ``time.monotonic`` at the window start, to place speed samples
        self.began_mono = 0.0
        self.cpu: Dict[int, float] = {}
        self.stats: Tuple[Dict, Dict] = ({}, {})

    @property
    def reads_per_s(self) -> float:
        done = sum(1 for _, sam, _ in self.outcomes if sam is not None)
        return harness.ratio(done, self.elapsed)


async def _closed_loop(endpoint: str, reads, first: int, seconds: float,
                       limit: int, window: _Window, pids: List[int],
                       with_stats: bool) -> None:
    client = await AsyncServiceClient.connect_endpoint(endpoint)
    indexes = itertools.count(first)
    clock = time.perf_counter

    async def sender(began: float) -> None:
        while clock() < began + seconds:
            idx = next(indexes)
            if idx >= first + limit:
                return
            start = clock()
            try:
                response = await asyncio.wait_for(
                    client.align(reads[idx % len(reads)]), REQUEST_TIMEOUT_S)
                window.outcomes.append((idx, response["sam"], None))
            except ServiceError as exc:
                window.outcomes.append((idx, None, exc.code))
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as exc:
                window.outcomes.append((idx, None, type(exc).__name__))
            done = clock()
            window.latencies_ms.append((done - start) * 1000.0)
            window.done_at.append(done - began)
            window.cpu_at.append(sum(harness.cpu_seconds(pids).values()))

    try:
        before = await client.stats() if with_stats else {}
        cpu0 = harness.cpu_seconds(pids)
        window.began_mono, began = time.monotonic(), clock()
        await asyncio.gather(*(sender(began) for _ in range(IN_FLIGHT)))
        window.elapsed = clock() - began
        cpu1 = harness.cpu_seconds(pids)
        window.cpu = {pid: cpu1.get(pid, 0.0) - cpu0.get(pid, 0.0) for pid in pids}
        after = await client.stats() if with_stats else {}
        window.stats = (before, after)
    finally:
        await client.close()


def _window(endpoint: str, reads, first: int, seconds: float,
            pids: List[int], with_stats: bool = False,
            limit: int = sys.maxsize) -> _Window:
    """Closed loop for ``seconds`` or until ``limit`` reads were sent."""
    window = _Window()
    asyncio.run(_closed_loop(endpoint, reads, first, seconds, limit, window,
                             pids, with_stats))
    return window


def _setup(src: str, workdir: str):
    """Reference, FASTA, index store and fleet until the gateway pings.

    Repeated in fresh directories; every fleet but the last is stopped.
    """
    times, fleet = [], None
    for rep in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.stop()
        repdir = os.path.join(workdir, f"setup{rep}")
        os.makedirs(repdir)
        start = time.perf_counter()
        reference = inputs.unique_reference()
        fasta = os.path.join(repdir, "reference.fa")
        index = os.path.join(repdir, "reference.idx")
        write_fasta(reference, fasta)
        build_index_store(reference, index)
        fleet = Fleet(src, repdir, fasta, index)
        try:
            fleet.wait_ready()
        except BaseException:
            fleet.stop()
            raise
        times.append(time.perf_counter() - start)
    return reference, index, fleet, statistics.median(times)


def _check(windows: List[_Window], reference, reads, result: Result):
    """Byte-compare every response with the in-process pipeline's SAM.

    Returns the in-process aligner and its results by pool position.
    """
    aligner = SoftwareAligner(reference)
    expected: Dict[int, Tuple[str, object]] = {}
    for window in windows:
        for idx, sam, error in window.outcomes:
            result.attempted += 1
            if error is not None:
                result.fail(f"read {idx}: {error}")
                continue
            key = idx % len(reads)
            if key not in expected:
                aligned = aligner.align(reads[key], key)
                expected[key] = (sam_record(aligned, reference), aligned)
            if sam != [expected[key][0]]:
                result.fail(f"read {idx}: served SAM differs from offline")
    return aligner, {key: aligned for key, (_, aligned) in expected.items()}


def _counter(snapshot: Dict, name: str) -> float:
    return snapshot.get("counters", {}).get(name, 0)


def _backend_delta(before: Dict, after: Dict, field: str, name: str) -> float:
    total = 0.0
    for bid, entry in after["backends"].items():
        old = before["backends"].get(bid, {}).get("stats", {})
        new = entry.get("stats", {})
        if field == "batcher":
            total += new.get("batcher", {}).get(name, 0) - \
                old.get("batcher", {}).get(name, 0)
        else:
            total += _counter(new.get("metrics", {}), name) - \
                _counter(old.get("metrics", {}), name)
    return total


def _probes(aligner, index_path: str, reads, result: Result) -> None:
    """In-process probes of the served seeding index and batch kernel."""
    stored = SoftwareAligner(aligner.reference,
                             index=IndexStore.open(index_path).fmindex())
    clock = time.perf_counter
    memory_s = store_s = 0.0
    pairs = []
    for read in reads[:PROBE_READS]:
        t0 = clock()
        anchors = aligner.collect_anchors(read.sequence, PhaseWork())
        t1 = clock()
        stored.collect_anchors(read.sequence, PhaseWork())
        store_s += clock() - t1
        memory_s += t1 - t0
        for hit in aligner.build_hits(0, len(read.sequence), anchors):
            oriented = (seq.reverse_complement(read.sequence) if hit.reverse
                        else read.sequence)
            pairs.append((oriented, aligner.text[hit.ref_start:hit.ref_end]))
    t0 = clock()
    locals_ = smith_waterman_batch(pairs)
    kernel_s = clock() - t0
    result.put("seeding.store_slowdown", harness.ratio(store_s, memory_s), "ratio")
    result.put("extension.batch_mcells_per_s",
               harness.ratio(sum(a.cells for a in locals_), kernel_s) / 1e6,
               "Mcells/s")


def _layer_metrics(traced: _Window, direct: _Window, fleet: Fleet,
                   result: Result) -> None:
    before, after = traced.stats
    sent = len(traced.outcomes)
    gw0, gw1 = before["gateway"], after["gateway"]
    hedges = _counter(gw1, "hedges_total") - _counter(gw0, "hedges_total")
    backend_pids = fleet.backend_pids()
    backend_cpu = sum(traced.cpu.get(pid, 0.0) for pid in backend_pids)
    gateway_cpu = traced.cpu.get(fleet.process.pid, 0.0)
    batches = _backend_delta(before, after, "batcher", "dispatched_batches")
    gate_p50 = harness.percentile(traced.latencies_ms, 0.5)
    direct_p50 = harness.percentile(direct.latencies_ms, 0.5)
    exec_p50_s = after["cluster_metrics"]["histograms"]["batch_exec_s"]["p50"]
    result.put("service.align_calls_per_read",
               _backend_delta(before, after, "metrics", "align_requests_total")
               / sent, "count")
    result.put("service.batch_size_mean",
               harness.ratio(_backend_delta(before, after, "batcher",
                                            "dispatched_items"), batches), "count")
    result.put("service.batch_exec_ms_p50", 1000.0 * exec_p50_s, "ms")
    result.put("service.backend_cpu_s_per_kread",
               harness.per_kilo(backend_cpu, sent), "s/kread")
    result.put("service.direct_p50_ms", direct_p50, "ms")
    result.put("cluster.hedges_per_request", hedges / sent, "count")
    result.put("cluster.hedge_win_frac",
               (_counter(gw1, "hedge_wins_total") - _counter(gw0, "hedge_wins_total"))
               / hedges if hedges else 0.0, "fraction")
    result.put("cluster.failovers_per_request",
               (_counter(gw1, "failovers_total") - _counter(gw0, "failovers_total"))
               / sent, "count")
    result.put("cluster.gateway_cpu_s_per_kread",
               harness.per_kilo(gateway_cpu, sent), "s/kread")
    result.put("cluster.added_ms_p50", gate_p50 - direct_p50, "ms")


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Result:
    del workload  # one gate workload
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    result = Result()
    reference, index_path, fleet, setup_s = _setup(src, workdir)
    os.nice(LOADGEN_NICE)
    try:
        reads = inputs.unique_reads(reference, seed, POOL)
        pids = fleet.pids
        warm = _window(fleet.endpoint, reads, 0, READY_TIMEOUT_S, pids,
                       limit=WARMUP_READS)
        first = WARMUP_READS
        if not trace:
            with harness.CoreProbes() as probes:
                window = _window(fleet.endpoint, reads, first, seconds, pids)
            rss_mb = harness.peak_rss_mb(pids)
            windows = [warm, window]
        else:
            half = seconds / 2.0
            plain = _window(fleet.endpoint, reads, first, half, pids)
            traced = _window(fleet.endpoint, reads, first, half, pids,
                             with_stats=True)
            backend = fleet.state()["backends"][0]["endpoint"]
            direct = _window(backend, reads, first, half, pids)
            _layer_metrics(traced, direct, fleet, result)
            windows = [warm, plain, traced, direct]
    finally:
        fleet.stop()

    aligner, aligned = _check(windows, reference, reads, result)
    recall = inputs.recall(aligner, reference, reads, aligned)
    if trace:
        _probes(aligner, index_path, reads, result)
        result.put("align.recall", recall, "fraction")
        result.put("bench.trace_overhead_frac",
                   harness.overhead_frac(plain.reads_per_s, traced.reads_per_s),
                   "fraction")
        return result
    lat = harness.latency_summary(window.latencies_ms)
    rounds = harness.round_stats(
        window.done_at, window.latencies_ms, window.cpu_at, IN_FLIGHT,
        lambda t0, t1: probes.over(t0 + window.began_mono, t1 + window.began_mono))
    figures = harness.window_figures(rounds)
    result.put("setup_s", setup_s, "s")
    for name, unit in (("reads_per_s", "reads/s"), ("cpu_s_per_kread", "s/kread"),
                       ("p50_ms", "ms"), ("p90_ms", "ms")):
        result.put(name, figures[name], unit)
    result.put("rss_mb", rss_mb, "MB")
    result.notes += [
        f"reads_per_s, cpu_s_per_kread, p50_ms, p90_ms: at nominal host speed "
        f"(median scale {figures['scale']:.3f}, from a probe on each CPU); each "
        f"is the median over {len(rounds)} rounds of {IN_FLIGHT} requests "
        f"(closed loop, {IN_FLIGHT} in flight); as measured over the whole "
        f"window: {window.reads_per_s:.2f} reads/s, p50 {lat['p50']:.1f} ms, "
        f"p90 {lat['p90']:.1f} ms ({lat['beyond_p90']} requests beyond it)",
        f"recall {recall:.4f} over reads 0-{inputs.RECALL_READS - 1} "
        f"(align.recall in the traced run)"]
    return result
