"""Sharded, multi-process execution of simulations and alignments.

:class:`ShardedRunner` partitions a workload (or read set) into fixed-size
shards and fans the shards out across ``multiprocessing`` workers, each
holding its own simulation ``Engine`` (or its own ``SoftwareAligner``).
Per-shard cycle counts, utilization statistics, counters, and SAM-ready
alignment results are merged in shard order, so the aggregate is a pure
function of the shard *plan* — never of the worker count or of completion
order.  ``ShardedRunner(parallelism=1)`` and ``parallelism=4`` therefore
produce bit-identical reports, which is the determinism contract the
runtime tests pin.

Simulation semantics: each shard runs to completion on a private
accelerator instance and the merged cycle count is the *sum* of shard
cycles — the sequential composition of batch runs with a full drain
between batches.  With a single shard this is exactly the classic
single-``Engine`` run, which is why the serial reference path stays
bit-identical to the pre-runtime code.

Resilience: parallel execution runs on ``ProcessPoolExecutor`` and
tolerates worker death (OOM-kill, SIGKILL, or an injected
:data:`~repro.faults.plan.SHARD_KILL` fault).  When a worker dies, only
the shards whose results were lost are re-executed — in a fresh pool,
without the injected-kill flag — and because the merge is keyed on shard
id, a run that lost and replayed a worker is bit-identical to one that
did not.  :class:`WorkerLostError` is raised only if a shard keeps
failing after ``shard_retries`` replay rounds.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.core.accelerator import AssignmentQuality, NvWaAccelerator
from repro.core.config import NvWaConfig
from repro.core.workload import ReadTask, Workload
from repro.faults.plan import SHARD_KILL, SITE_SHARD, FaultInjector
from repro.sim.stats import CounterSet, ThroughputResult


class WorkerLostError(RuntimeError):
    """A shard's worker died and retries were exhausted."""

#: Default reads per shard.  Large enough that scheduler warm-up effects
#: stay negligible, small enough that a few thousand reads spread across
#: several workers.
DEFAULT_SHARD_SIZE = 256


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic partition of ``total`` items into contiguous shards.

    The plan depends only on ``total`` and ``shard_size`` — never on the
    number of workers executing it.
    """

    total: int
    shard_size: int = DEFAULT_SHARD_SIZE

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError(f"total must be >= 0, got {self.total}")
        if self.shard_size <= 0:
            raise ValueError(
                f"shard_size must be positive, got {self.shard_size}")

    @property
    def num_shards(self) -> int:
        if self.total == 0:
            return 0
        return (self.total + self.shard_size - 1) // self.shard_size

    def bounds(self) -> List[Tuple[int, int]]:
        """``[start, end)`` ranges, in shard order."""
        return [(start, min(start + self.shard_size, self.total))
                for start in range(0, self.total, self.shard_size)]


@dataclass
class _SimShardResult:
    """Picklable per-shard simulation summary returned by workers."""

    shard_id: int
    reads: int
    hits_processed: int
    cycles: int
    su_busy_cycles: int
    eu_busy_cycles: int
    num_seeding_units: int
    num_extension_units: int
    counters: Dict[str, int]
    memory_energy_pj: float
    eu_pe_efficiency: float
    memory_bandwidth_utilization: float
    quality_correct: Dict[int, int]
    quality_total: Dict[int, int]
    extension_results: Optional[Dict[Tuple[int, int], Any]] = None


@dataclass
class ShardedReport:
    """Merged result of a sharded simulation run.

    Mirrors the fields of
    :class:`~repro.core.accelerator.SimulationReport` that sweeps and the
    CLI consume; utilizations are cycle-weighted means over shards and
    ``eu_pe_efficiency`` is the EU-busy-cycle-weighted mean (the exact
    per-PE numerators are internal to each shard's engine).
    """

    config: NvWaConfig
    shards: int
    reads: int
    hits_processed: int
    cycles: int
    shard_cycles: List[int]
    su_utilization: float
    eu_utilization: float
    eu_pe_efficiency: float
    memory_energy_pj: float
    memory_bandwidth_utilization: float
    counters: CounterSet
    assignment_quality: AssignmentQuality
    extension_results: Optional[Dict[Tuple[int, int], Any]] = None

    @property
    def throughput(self) -> ThroughputResult:
        return ThroughputResult(reads=self.reads, cycles=self.cycles,
                                frequency_hz=self.config.frequency_hz)

    @property
    def eu_effective_utilization(self) -> float:
        return self.eu_utilization * self.eu_pe_efficiency


def _simulate_shard(payload: Tuple[int, NvWaConfig, Tuple[ReadTask, ...],
                                   Optional[int]]) -> _SimShardResult:
    """Worker body: one shard through a private accelerator instance."""
    shard_id, config, tasks, max_cycles = payload
    report = NvWaAccelerator(config).run(Workload(list(tasks)),
                                         max_cycles=max_cycles)
    return _SimShardResult(
        shard_id=shard_id,
        reads=report.reads,
        hits_processed=report.hits_processed,
        cycles=report.cycles,
        su_busy_cycles=report.su_trace.busy_cycles,
        eu_busy_cycles=report.eu_trace.busy_cycles,
        num_seeding_units=config.num_seeding_units,
        num_extension_units=config.num_extension_units,
        counters=report.counters.as_dict(),
        memory_energy_pj=report.memory_energy_pj,
        eu_pe_efficiency=report.eu_pe_efficiency,
        memory_bandwidth_utilization=report.memory_bandwidth_utilization,
        quality_correct=dict(report.assignment_quality.correct),
        quality_total=dict(report.assignment_quality.total),
        extension_results=report.extension_results,
    )


# --------------------------------------------------------------------- #
# Alignment workers: one SoftwareAligner per process, built once by the
# pool initializer (index construction is the expensive part).
# --------------------------------------------------------------------- #

_WORKER_ALIGNER = None


def _init_align_worker(reference, aligner_kwargs: Dict[str, Any],
                       index_path: Optional[str] = None) -> None:
    """Pool initializer: build one aligner per worker process.

    With ``index_path`` the worker memory-maps the prebuilt index store
    (microseconds, one shared physical copy across every worker on the
    box) instead of rebuilding the FM-index from scratch — the difference
    benchmarked by ``test_bench_index_load.py``.
    """
    from repro.align.pipeline import SoftwareAligner

    global _WORKER_ALIGNER
    aligner_kwargs = dict(aligner_kwargs)
    if index_path is not None and "index" not in aligner_kwargs:
        from repro.seeding.store import IndexStore

        aligner_kwargs["index"] = IndexStore.open(index_path).fmindex()
    _WORKER_ALIGNER = SoftwareAligner(reference, **aligner_kwargs)


def _align_shard(payload: Tuple[int, int, Sequence[Any]]
                 ) -> Tuple[int, List[Any]]:
    shard_id, start, reads = payload
    return shard_id, _WORKER_ALIGNER.align_all(reads, start_index=start)


def _guarded(fn: Callable[[Any], Any], payload: Tuple[bool, Any]) -> Any:
    """Worker body wrapper: an injected SHARD_KILL dies *for real*.

    SIGKILL (not an exception) so the parent exercises the exact same
    recovery path a production OOM-kill takes: a broken pool, a lost
    future, and a replay of only the lost shards.
    """
    inject_kill, inner = payload
    if inject_kill:
        os.kill(os.getpid(), signal.SIGKILL)
    return fn(inner)


def _simulate_shard_guarded(payload: Tuple[bool, Any]) -> _SimShardResult:
    return _guarded(_simulate_shard, payload)


def _align_shard_guarded(payload: Tuple[bool, Any]
                         ) -> Tuple[int, List[Any]]:
    return _guarded(_align_shard, payload)


def _pool_context(requested: Optional[str] = None):
    """Fork when the platform offers it (cheap, shares the parent's
    imports); spawn otherwise."""
    if requested is not None:
        return multiprocessing.get_context(requested)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_resilient(fn: Callable[[Any], Any],
                  payloads: Sequence[Any],
                  parallelism: int,
                  mp_context: Optional[str] = None,
                  retries: int = 2,
                  kill_flags: Optional[Sequence[bool]] = None,
                  initializer: Optional[Callable[..., None]] = None,
                  initargs: Tuple[Any, ...] = ()) -> List[Any]:
    """Fan ``fn`` over ``payloads`` across processes, surviving worker
    death; results in payload order.

    ``fn`` must accept ``(inject_kill, payload)`` tuples (wrap a plain
    worker body with :func:`_guarded`-style unpacking).  A dead worker
    (real SIGKILL/OOM, or injected via ``kill_flags``) breaks the pool
    for every payload still in flight; those payloads — and only those —
    re-execute in a fresh pool on the next round, injected kills
    disarmed.  Because results are keyed by payload index, a run that
    lost and replayed a worker returns exactly what an undisturbed run
    returns.  :class:`WorkerLostError` is raised when a payload fails
    all ``retries + 1`` rounds.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    ctx = _pool_context(mp_context)
    flags = list(kill_flags) if kill_flags is not None \
        else [False] * len(payloads)
    if len(flags) != len(payloads):
        raise ValueError(
            f"kill_flags length {len(flags)} != payloads {len(payloads)}")
    results: List[Any] = [None] * len(payloads)
    pending = list(range(len(payloads)))
    for round_idx in range(retries + 1):
        if not pending:
            break
        if round_idx:
            obs.instant("shard_replay", "faults", round=round_idx,
                        shards=len(pending))
        workers = min(parallelism, len(pending))
        lost: List[int] = []
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=ctx,
                                 initializer=initializer,
                                 initargs=initargs) as pool:
            futures = {
                idx: pool.submit(
                    fn, (flags[idx] and round_idx == 0, payloads[idx]))
                for idx in pending
            }
            for idx, future in futures.items():
                try:
                    results[idx] = future.result()
                except (BrokenProcessPool, OSError):
                    lost.append(idx)
        pending = lost
    if pending:
        raise WorkerLostError(
            f"shards {pending} lost their worker in all "
            f"{retries + 1} rounds")
    return results


class ShardedRunner:
    """Parallel, shard-deterministic front-end to the accelerator and the
    software aligner.

    Args:
        config: accelerator configuration for :meth:`run` (paper design
            point when omitted).
        parallelism: worker processes; ``1`` executes shards serially
            in-process (the reference path, no multiprocessing involved).
        shard_size: reads per shard.  Part of the result's identity:
            changing it changes the shard plan (and therefore the merged
            cycle count); changing ``parallelism`` never does.
        mp_context: optional multiprocessing start method override
            ("fork"/"spawn"/"forkserver").
        shard_retries: replay rounds for shards lost to a dead worker
            before :class:`WorkerLostError` is raised.
        fault_injector: optional :class:`~repro.faults.plan.
            FaultInjector` consulted once per shard (parallel paths
            only); a :data:`SHARD_KILL` event SIGKILLs that shard's
            worker on its first attempt.
    """

    def __init__(self, config: Optional[NvWaConfig] = None,
                 parallelism: int = 1,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 mp_context: Optional[str] = None,
                 shard_retries: int = 2,
                 fault_injector: Optional[FaultInjector] = None):
        if parallelism <= 0:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}")
        if shard_retries < 0:
            raise ValueError(
                f"shard_retries must be >= 0, got {shard_retries}")
        self.config = config if config is not None else NvWaConfig()
        self.parallelism = parallelism
        self.shard_size = shard_size
        self.mp_context = mp_context
        self.shard_retries = shard_retries
        self.fault_injector = fault_injector
        # Validates shard_size eagerly so misconfiguration fails at
        # construction, not first run.
        ShardPlan(total=0, shard_size=shard_size)

    # ------------------------------------------------------------------ #
    # Resilient parallel execution
    # ------------------------------------------------------------------ #

    def _kill_flags(self, count: int) -> List[bool]:
        """Consult the fault plan once per shard, in shard order."""
        flags = [False] * count
        if self.fault_injector is None:
            return flags
        for shard_id in range(count):
            event = self.fault_injector.check(SITE_SHARD)
            if event is not None and event.kind == SHARD_KILL:
                flags[shard_id] = True
                obs.instant("fault_injected", "faults", kind=event.kind,
                            site=event.site, shard=shard_id)
        return flags

    def _execute_shards(self, fn: Callable[[Any], Any],
                        payloads: Sequence[Any],
                        initializer: Optional[Callable[..., None]] = None,
                        initargs: Tuple[Any, ...] = ()) -> List[Any]:
        """:func:`run_resilient` with this runner's knobs and fault plan."""
        return run_resilient(
            fn, payloads, parallelism=self.parallelism,
            mp_context=self.mp_context, retries=self.shard_retries,
            kill_flags=self._kill_flags(len(payloads)),
            initializer=initializer, initargs=initargs)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #

    def run(self, workload: Workload,
            max_cycles: Optional[int] = None) -> ShardedReport:
        """Simulate ``workload`` across shards; returns the merged report."""
        plan = ShardPlan(total=len(workload), shard_size=self.shard_size)
        payloads = [(shard_id, self.config,
                     tuple(workload.tasks[start:end]), max_cycles)
                    for shard_id, (start, end) in enumerate(plan.bounds())]
        with obs.span("sharded_sim", "runtime", shards=len(payloads),
                      parallelism=self.parallelism):
            if self.parallelism == 1 or len(payloads) <= 1:
                shard_results = []
                for payload in payloads:
                    with obs.span("sim_shard", "runtime",
                                  shard_id=payload[0],
                                  reads=len(payload[2])):
                        shard_results.append(_simulate_shard(payload))
            else:
                shard_results = self._execute_shards(
                    _simulate_shard_guarded, payloads)
            shard_results.sort(key=lambda r: r.shard_id)
            with obs.span("merge", "runtime"):
                return self._merge(shard_results)

    def _merge(self, shards: List[_SimShardResult]) -> ShardedReport:
        cycles = sum(s.cycles for s in shards)
        reads = sum(s.reads for s in shards)
        hits = sum(s.hits_processed for s in shards)
        counters = CounterSet()
        quality = AssignmentQuality()
        extension_results: Optional[Dict[Tuple[int, int], Any]] = None
        su_busy = eu_busy = 0
        eu_busy_weighted_eff = 0.0
        bw_weighted = 0.0
        energy = 0.0
        for shard in shards:
            su_busy += shard.su_busy_cycles
            eu_busy += shard.eu_busy_cycles
            eu_busy_weighted_eff += (shard.eu_pe_efficiency
                                     * shard.eu_busy_cycles)
            bw_weighted += (shard.memory_bandwidth_utilization
                            * shard.cycles)
            energy += shard.memory_energy_pj
            for name, value in sorted(shard.counters.items()):
                counters.add(name, value)
            for pe_class, total in sorted(shard.quality_total.items()):
                quality.total[pe_class] = \
                    quality.total.get(pe_class, 0) + total
            for pe_class, correct in sorted(shard.quality_correct.items()):
                quality.correct[pe_class] = \
                    quality.correct.get(pe_class, 0) + correct
            if shard.extension_results is not None:
                if extension_results is None:
                    extension_results = {}
                extension_results.update(shard.extension_results)
        num_su = shards[0].num_seeding_units if shards else \
            self.config.num_seeding_units
        num_eu = shards[0].num_extension_units if shards else \
            self.config.num_extension_units
        su_util = su_busy / (cycles * num_su) if cycles else 0.0
        eu_util = eu_busy / (cycles * num_eu) if cycles else 0.0
        pe_eff = eu_busy_weighted_eff / eu_busy if eu_busy else 0.0
        bw_util = bw_weighted / cycles if cycles else 0.0
        return ShardedReport(
            config=self.config,
            shards=len(shards),
            reads=reads,
            hits_processed=hits,
            cycles=cycles,
            shard_cycles=[s.cycles for s in shards],
            su_utilization=su_util,
            eu_utilization=eu_util,
            eu_pe_efficiency=pe_eff,
            memory_energy_pj=energy,
            memory_bandwidth_utilization=bw_util,
            counters=counters,
            assignment_quality=quality,
            extension_results=extension_results,
        )

    # ------------------------------------------------------------------ #
    # Alignment
    # ------------------------------------------------------------------ #

    def align(self, reference, reads: Sequence[Any],
              aligner_kwargs: Optional[Dict[str, Any]] = None,
              index_path: Optional[str] = None) -> List[Any]:
        """Align ``reads`` against ``reference`` across shards.

        Returns ``ReadAlignment`` results in global read order with global
        read indices, ready for ``repro.align.sam.write_sam`` — identical
        output for any worker count, because each read's alignment depends
        only on the read itself and the shared reference.

        ``index_path`` names a prebuilt index store (see
        :mod:`repro.seeding.store`): every worker then attaches the
        memory-mapped index — one physical copy machine-wide — instead of
        rebuilding the FM-index per process, with bit-identical output.

        Each shard is one ``align_all`` call, in the serial path too, so
        the extension step holds one shard's hits at a time.
        """
        from repro.align.pipeline import SoftwareAligner

        aligner_kwargs = dict(aligner_kwargs or {})
        plan = ShardPlan(total=len(reads), shard_size=self.shard_size)
        bounds = plan.bounds()
        with obs.span("sharded_align", "runtime", reads=len(reads),
                      shards=len(bounds), parallelism=self.parallelism):
            if self.parallelism == 1 or len(bounds) <= 1:
                serial_kwargs = dict(aligner_kwargs)
                if index_path is not None and "index" not in serial_kwargs:
                    from repro.seeding.store import IndexStore

                    serial_kwargs["index"] = \
                        IndexStore.open(index_path).fmindex()
                aligner = SoftwareAligner(reference, **serial_kwargs)
                return [result for start, end in bounds
                        for result in aligner.align_all(reads[start:end],
                                                        start_index=start)]
            payloads = [(shard_id, start, list(reads[start:end]))
                        for shard_id, (start, end) in enumerate(bounds)]
            shard_results = self._execute_shards(
                _align_shard_guarded, payloads,
                initializer=_init_align_worker,
                initargs=(reference, aligner_kwargs, index_path))
            shard_results.sort(key=lambda item: item[0])
            merged: List[Any] = []
            for _, results in shard_results:
                merged.extend(results)
            return merged


def default_parallelism() -> int:
    """A sensible worker count for the current machine."""
    return max(1, os.cpu_count() or 1)
