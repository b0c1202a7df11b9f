"""The asyncio alignment server.

Wiring (one process, one event loop)::

    connections ──decode──▶ DynamicBatcher ──batches──▶ worker tasks
         ▲                     (bounded,                (engine per
         │                      admission-               worker, thread
         └──────responses────── controlled)              executor)

Each accepted connection speaks the NDJSON protocol of
:mod:`repro.service.protocol` through the session layer of
:mod:`repro.service.session`. ``align``/``align_pair`` requests are
admitted into the :class:`~repro.service.batcher.DynamicBatcher`; worker
tasks pull kernel-sized batches and execute them on a thread-pool
executor, each worker owning a private
:class:`~repro.service.engine.AlignmentEngine` (no shared mutable
aligner state, and index construction happens once per worker, off the
event loop). Responses stream back per connection as their batches
retire, tagged with request ids, so any number of requests may be in
flight on one connection.

Robustness contract (pinned by tests):

- **Admission control**: a full queue rejects with ``overloaded``
  instead of queueing unboundedly.
- **Latency budgets**: a request's ``budget_ms`` becomes its batcher
  deadline — spent before admission or while queued, the request is
  shed with ``queue_timeout`` and never executes — and caps the wait
  for its answer at the budget plus a small grace.
- **Per-request timeout**: a request that misses its deadline gets a
  ``timeout`` response; if it is still queued it is abandoned so the
  batcher never spends kernel time on it.
- **Worker crash recovery**: if an engine raises mid-batch the worker
  discards it, builds a fresh engine from the factory, and replays the
  whole batch; after ``max_retries`` replays it isolates requests and
  fails only the poisoned ones. Accepted requests are never silently
  dropped.
- **Graceful drain**: :meth:`AlignmentServer.shutdown` stops admitting,
  lets the workers drain every queued request, flushes the responses,
  and only then tears down.
- **Degraded mode**: a :class:`~repro.faults.breaker.CircuitBreaker`
  watches worker crashes; past the threshold the server sheds *new*
  align requests with ``busy`` (already-accepted work still drains)
  instead of collapsing, probes after a cooldown, and recovers.
- **Idempotent retries**: an align request carrying an ``idem`` key is
  deduplicated against a bounded cache of completed payloads, so a
  client that lost a response to a dropped connection can retry without
  recomputation or double-application.

Fault injection: construct with a :class:`~repro.faults.plan.
FaultInjector` and the server wraps every engine in a
:class:`~repro.faults.injectors.FaultyEngine` (crash/latency faults at
the ``engine`` site) and hooks the session's response writes to the
``conn_write`` site (drops and partial writes).  No injector, no
overhead — the hot paths check a single ``is not None``.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional

from repro import obs
from repro.faults.breaker import STATE_CODES, CircuitBreaker
from repro.faults.injectors import FaultyEngine
from repro.faults.plan import CONN_DROP, SITE_CONN_WRITE, FaultInjector
from repro.genome.reference import ReferenceGenome
from repro.service.batcher import DynamicBatcher, ServiceClosedError
from repro.service.engine import AlignmentEngine, EngineError
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import ERR_BUSY, AlignRequest, ServiceError
from repro.service.session import Connection, NdjsonFrontEnd

logger = logging.getLogger("repro.service")


@dataclass
class ServerConfig:
    """Every serving knob in one place (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral; read server.port after start
    unix_path: Optional[str] = None  # UNIX socket path (overrides host/port)
    max_batch: int = 64
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    workers: int = 2
    request_timeout_s: float = 30.0  # 0 disables
    stats_interval_s: float = 10.0   # 0 disables the periodic log line
    max_retries: int = 2             # batch replays after a worker crash
    breaker_threshold: int = 8       # worker crashes in window → degraded
    breaker_window_s: float = 10.0   # sliding failure window
    breaker_cooldown_s: float = 2.0  # open → half-open probe delay
    breaker_probes: int = 1          # concurrent half-open probes
    idempotency_capacity: int = 4096  # completed payloads kept for dedup
    index_path: Optional[str] = None  # prebuilt mmap index store (repro index build)

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {self.queue_depth}")
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.request_timeout_s < 0:
            raise ValueError(
                f"request_timeout_s must be >= 0, got {self.request_timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}")
        if self.breaker_window_s <= 0:
            raise ValueError(
                f"breaker_window_s must be positive, got {self.breaker_window_s}")
        if self.breaker_cooldown_s < 0:
            raise ValueError(
                f"breaker_cooldown_s must be >= 0, got {self.breaker_cooldown_s}")
        if self.breaker_probes < 1:
            raise ValueError(
                f"breaker_probes must be >= 1, got {self.breaker_probes}")
        if self.idempotency_capacity < 1:
            raise ValueError(f"idempotency_capacity must be >= 1, "
                             f"got {self.idempotency_capacity}")


class AlignmentServer(NdjsonFrontEnd):
    """Online alignment service over a fixed reference genome.

    The NDJSON session (framing, decoding, idempotency, drain) is
    :class:`~repro.service.session.NdjsonFrontEnd`'s; this class admits
    align requests into its batcher and runs the workers behind it.

    Args:
        reference: genome every request aligns against.
        config: serving knobs (batching, admission, timeouts, workers).
        metrics: optional shared registry (a fresh one by default).
        engine_factory: builds one engine per worker; defaults to
            :class:`AlignmentEngine` over ``reference`` with the config's
            batching knobs. Tests inject flaky factories here.
        fault_injector: optional seeded injector (see :mod:`repro.
            faults`); wires crash/latency faults into every engine and
            drop/partial-write faults into response writes.
    """

    def __init__(self, reference: ReferenceGenome,
                 config: Optional[ServerConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 engine_factory: Optional[Callable[[], Any]] = None,
                 fault_injector: Optional[FaultInjector] = None):
        super().__init__(config or ServerConfig(),
                         metrics or MetricsRegistry())
        self.config: ServerConfig
        self.reference = reference
        base_factory = engine_factory or self._default_engine_factory
        self._injector = fault_injector
        if fault_injector is not None:
            self._engine_factory: Callable[[], Any] = (
                lambda: FaultyEngine(base_factory(), fault_injector))
            self._write_hook = self._drop_connection
        else:
            self._engine_factory = base_factory
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            window_s=self.config.breaker_window_s,
            cooldown_s=self.config.breaker_cooldown_s,
            half_open_probes=self.config.breaker_probes,
            on_transition=self._on_breaker_transition)
        self.metrics.set_gauge("breaker_state",
                               STATE_CODES[self.breaker.state])
        self._batcher: Optional[DynamicBatcher] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._worker_tasks: list = []
        self._stats_task: Optional[asyncio.Task] = None

    def _default_engine_factory(self) -> AlignmentEngine:
        """One engine per worker; mmap-attach the index when configured.

        With ``config.index_path`` every engine opens its *own*
        :class:`~repro.seeding.store.IndexStore` over the same file —
        separate Python objects (no shared mutable access stats across
        worker threads) but one physical copy of the arrays in the page
        cache, and cold-start drops from a suffix-array build over both
        strands to a few ``mmap`` calls.  A torn or tampered store raises a typed
        :class:`~repro.seeding.store.IndexStoreError` here instead of
        serving misaligned reads.
        """
        aligner_kwargs: Optional[Dict[str, Any]] = None
        if self.config.index_path is not None:
            from repro.seeding.store import IndexStore

            store = IndexStore.open(self.config.index_path)
            aligner_kwargs = {"index": store.fmindex()}
        return AlignmentEngine(self.reference, aligner_kwargs=aligner_kwargs)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind, spin up workers, start accepting connections."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        cfg = self.config
        self._batcher = DynamicBatcher(
            max_batch=cfg.max_batch,
            max_wait_s=cfg.max_wait_ms / 1000.0,
            queue_depth=cfg.queue_depth,
            metrics=self.metrics)
        self._executor = ThreadPoolExecutor(
            max_workers=cfg.workers, thread_name_prefix="align-worker")
        self._worker_tasks = [
            asyncio.ensure_future(self._worker(idx))
            for idx in range(cfg.workers)]
        await self._listen()
        if cfg.stats_interval_s > 0:
            self._stats_task = asyncio.ensure_future(self._stats_logger())
        logger.info("serving alignments on %s (max_batch=%d max_wait=%.1fms "
                    "queue_depth=%d workers=%d)", self.endpoint,
                    cfg.max_batch, cfg.max_wait_ms, cfg.queue_depth,
                    cfg.workers)

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting; optionally drain queued work before teardown."""
        if self._listener is None:
            return
        self._stop_listening()
        assert self._batcher is not None
        if not drain:
            # Fail queued work fast rather than executing it.
            self._batcher.abort_pending(
                lambda: ServiceClosedError("server shutting down"))
        self._batcher.close()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks)
        await self._drain_responses()
        if self._stats_task is not None:
            self._stats_task.cancel()
            try:
                await self._stats_task
            except asyncio.CancelledError:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        logger.info("drained and stopped: %s", self.metrics.format_line())
        self._listener = None

    # ------------------------------------------------------------------ #
    # Admission (the session layer does everything else per request)
    # ------------------------------------------------------------------ #

    def _admit(self, request: AlignRequest, conn_id: int,
               span: Any) -> Awaitable[Dict[str, Any]]:
        if not self.breaker.allow():
            # Degraded mode: shed instead of queueing onto a crashing
            # engine pool. `busy` tells the client to back off + retry.
            self.metrics.inc("shed_total")
            obs.instant("request_shed", "service")
            raise ServiceError(
                ERR_BUSY, "degraded mode: worker crash rate tripped the "
                "circuit breaker; back off and retry")
        assert self._batcher is not None
        deadline, timeout = self._deadline(request.budget_ms)
        # Raises ServiceOverloadedError / QueueTimeoutShed /
        # ServiceClosedError, and the future may resolve to
        # QueueTimeoutShed or EngineError: all typed ServiceErrors.
        future = self._batcher.submit(request, span_id=span.span_id,
                                      deadline=deadline)
        return asyncio.wait_for(future, timeout)

    async def _drop_connection(self, conn: Connection,
                               data: bytes) -> bool:
        """The write hook under fault injection: on an injected
        ``conn_drop``, emit a prefix of the response (a torn write;
        0 = nothing) and kill the connection, so the client sees exactly
        what a mid-write network failure looks like."""
        assert self._injector is not None
        event = self._injector.check(SITE_CONN_WRITE)
        if event is None or event.kind != CONN_DROP:
            return False
        self.metrics.inc("injected_conn_faults_total")
        obs.instant("fault_injected", "faults", kind=CONN_DROP,
                    partial=event.param)
        try:
            async with conn.lock:  # repro-lint: disable=lock-across-await
                keep = int(len(data) * event.param)
                if keep > 0:
                    conn.writer.write(data[:keep])
                    await conn.writer.drain()
                conn.writer.close()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass
        return True

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #

    async def _worker(self, worker_id: int) -> None:
        loop = asyncio.get_event_loop()
        engine: Any = None
        assert self._batcher is not None and self._executor is not None
        while True:
            batch = await self._batcher.next_batch()
            if batch is None:
                return
            items = [item for item in batch if not item.abandoned]
            if not items:
                continue
            requests = [item.request for item in items]
            started = time.monotonic()
            payloads = None
            # The kernel span is the batch's execution window; it names
            # every member request span so the timeline links a batch to
            # the requests it retired (the Perfetto-clickable analogue
            # of NvWa's unit-occupancy attribution).
            kernel_span = obs.begin(
                "kernel", "service", worker=worker_id, size=len(items),
                request_spans=[item.span_id for item in items
                               if item.span_id])
            for attempt in range(self.config.max_retries + 1):
                try:
                    if engine is None:
                        engine = await loop.run_in_executor(
                            self._executor, self._engine_factory)
                    payloads = await loop.run_in_executor(
                        self._executor, engine.execute, requests)
                    self.breaker.record_success()
                    break
                except Exception as exc:
                    self.metrics.inc("worker_crashes_total")
                    self.breaker.record_failure()
                    logger.warning(
                        "worker %d crashed on a %d-request batch "
                        "(attempt %d/%d): %s", worker_id, len(requests),
                        attempt + 1, self.config.max_retries + 1, exc)
                    engine = None  # rebuild from the factory and replay
            if payloads is None:
                payloads = await self._isolate(loop, requests)
                engine = None
            self.metrics.inc("batches_total")
            self.metrics.observe("batch_exec_s",
                                 time.monotonic() - started)
            kernel_span.end()
            for item, payload in zip(items, payloads):
                if item.future.done():
                    continue  # abandoned (timeout) while we computed
                if isinstance(payload, Exception):
                    item.future.set_exception(payload)
                else:
                    item.future.set_result(payload)

    async def _isolate(self, loop: asyncio.AbstractEventLoop,
                       requests: list) -> list:
        """Last resort after replays: run requests one by one so a single
        poisoned request fails alone instead of sinking its batchmates."""
        results: list = []
        try:
            engine = await loop.run_in_executor(self._executor,
                                                self._engine_factory)
        except Exception as exc:
            err = EngineError(f"engine unavailable: {exc}")
            return [err for _ in requests]
        for request in requests:
            try:
                payload = await loop.run_in_executor(
                    self._executor, engine.execute, [request])
                results.append(payload[0])
            except Exception as exc:
                self.metrics.inc("poisoned_requests_total")
                results.append(EngineError(str(exc)))
        return results

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def _on_breaker_transition(self, old_state: str,
                               new_state: str) -> None:
        self.metrics.set_gauge("breaker_state", STATE_CODES[new_state])
        if new_state == "open":
            self.metrics.inc("breaker_opens_total")
        obs.instant("breaker_transition", "service",
                    old=old_state, new=new_state)
        logger.warning("circuit breaker %s -> %s", old_state, new_state)

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` response body: metrics + batcher + config."""
        assert self._batcher is not None
        cfg = self.config
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "config": {
                "max_batch": cfg.max_batch,
                "max_wait_ms": cfg.max_wait_ms,
                "queue_depth": cfg.queue_depth,
                "workers": cfg.workers,
                "request_timeout_s": cfg.request_timeout_s,
            },
            "batcher": self._batcher.stats.as_dict(),
            "breaker": self.breaker.as_dict(),
            "faults": (self._injector.fired_counts()
                       if self._injector is not None else {}),
            "metrics": self.metrics.snapshot(),
        }

    async def _stats_logger(self) -> None:
        while True:
            await asyncio.sleep(self.config.stats_interval_s)
            logger.info("stats %s", self.metrics.format_line())


async def run_server(reference: ReferenceGenome,
                     config: Optional[ServerConfig] = None,
                     ready: Optional["asyncio.Event"] = None,
                     fault_injector: Optional[FaultInjector] = None) -> None:
    """Start a server and serve until cancelled; drains on the way out.

    The CLI entry point; also convenient for embedding in tests::

        task = asyncio.ensure_future(run_server(ref, cfg, ready))
        await ready.wait()
        ...
        task.cancel()
    """
    server = AlignmentServer(reference, config=config,
                             fault_injector=fault_injector)
    await server.start()
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    finally:
        await server.shutdown(drain=True)
