"""Sharded, multi-process alignment, and the resilient pool behind it.

:class:`ShardedRunner` partitions a read set into contiguous fixed-size
shards and fans them out across ``multiprocessing`` workers, each holding
its own ``SoftwareAligner``.  Results are merged in shard order with
global read indices, so the SAM output is identical for any worker count
— each read's alignment depends only on the read and the reference.

The simulator is not sharded: :func:`repro.runtime.sweep.simulate_many`
is the one parallel path into it, one whole ``(config, workload)`` run
per job.

Resilience: :func:`run_resilient` runs on ``ProcessPoolExecutor`` and
tolerates worker death (OOM-kill, SIGKILL, or an injected
:data:`~repro.faults.plan.SHARD_KILL` fault).  When a worker dies, only
the payloads whose results were lost are re-executed — in a fresh pool,
without the injected-kill flag — and because results are keyed by
payload index, a run that lost and replayed a worker is bit-identical to
one that did not.  :class:`WorkerLostError` is raised only if a payload
keeps failing after ``retries`` replay rounds.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.faults.plan import SHARD_KILL, SITE_SHARD, FaultInjector


class WorkerLostError(RuntimeError):
    """A shard's worker died and retries were exhausted."""

#: Default reads per shard: each shard is one ``align_all`` call, so this
#: bounds the hits the extension step holds at a time.
DEFAULT_SHARD_SIZE = 256


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


def _align_shard(payload: Tuple[int, Sequence[Any]]) -> List[Any]:
    start, reads = payload
    return _WORKER_ALIGNER.align_all(reads, start_index=start)


def _run_worker(fn: Callable[[Any], Any], inject_kill: bool,
                payload: Any) -> Any:
    """Worker trampoline: an injected SHARD_KILL dies *for real*.

    SIGKILL (not an exception) so the parent exercises the exact same
    recovery path a production OOM-kill takes: a broken pool, a lost
    future, and a replay of only the lost payloads.
    """
    if inject_kill:
        os.kill(os.getpid(), signal.SIGKILL)
    return fn(payload)


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

    ``fn`` is a plain module-level worker body taking one payload.  A
    dead worker (real SIGKILL/OOM, or injected via ``kill_flags``) breaks
    the pool for every payload still in flight; those payloads — and
    only those — re-execute in a fresh pool on the next round, injected
    kills disarmed.  Because results are keyed by payload index, a run
    that lost and replayed a worker returns exactly what an undisturbed
    run returns.  :class:`WorkerLostError` is raised when a payload
    fails all ``retries + 1`` rounds.
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
                idx: pool.submit(_run_worker, fn,
                                 flags[idx] and round_idx == 0,
                                 payloads[idx])
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
    """Parallel, shard-deterministic front-end to the software aligner.

    Args:
        parallelism: worker processes; ``1`` aligns shards serially
            in-process (the reference path, no multiprocessing involved).
        shard_size: reads per shard (one ``align_all`` call each).
        mp_context: optional multiprocessing start method override
            ("fork"/"spawn"/"forkserver").
        shard_retries: replay rounds for shards lost to a dead worker
            before :class:`WorkerLostError` is raised.
        fault_injector: optional :class:`~repro.faults.plan.
            FaultInjector` consulted once per shard (parallel path
            only); a :data:`SHARD_KILL` event SIGKILLs that shard's
            worker on its first attempt.
    """

    def __init__(self, parallelism: int = 1,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 mp_context: Optional[str] = None,
                 shard_retries: int = 2,
                 fault_injector: Optional[FaultInjector] = None):
        if parallelism <= 0:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}")
        if shard_size <= 0:
            raise ValueError(
                f"shard_size must be positive, got {shard_size}")
        if shard_retries < 0:
            raise ValueError(
                f"shard_retries must be >= 0, got {shard_retries}")
        self.parallelism = parallelism
        self.shard_size = shard_size
        self.mp_context = mp_context
        self.shard_retries = shard_retries
        self.fault_injector = fault_injector

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
        starts = range(0, len(reads), self.shard_size)
        with obs.span("sharded_align", "runtime", reads=len(reads),
                      shards=len(starts), parallelism=self.parallelism):
            if self.parallelism == 1 or len(starts) <= 1:
                serial_kwargs = dict(aligner_kwargs)
                if index_path is not None and "index" not in serial_kwargs:
                    from repro.seeding.store import IndexStore

                    serial_kwargs["index"] = \
                        IndexStore.open(index_path).fmindex()
                aligner = SoftwareAligner(reference, **serial_kwargs)
                return [result for start in starts
                        for result in aligner.align_all(
                            reads[start:start + self.shard_size],
                            start_index=start)]
            payloads = [(start, list(reads[start:start + self.shard_size]))
                        for start in starts]
            shard_results = run_resilient(
                _align_shard, payloads, parallelism=self.parallelism,
                mp_context=self.mp_context, retries=self.shard_retries,
                kill_flags=self._kill_flags(len(payloads)),
                initializer=_init_align_worker,
                initargs=(reference, aligner_kwargs, index_path))
            return [result for results in shard_results
                    for result in results]
