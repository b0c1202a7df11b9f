"""The cluster gateway: one NDJSON front door over N backends.

Wiring (one process, one event loop)::

    clients ──decode──▶ route ──────────────▶ BackendHandle(s)
       ▲                 │  replicated: one     (AsyncServiceClient
       │                 │  replica via the      + CircuitBreaker +
       │                 │  hash ring, with      health state)
       │                 │  failover
       │                 │  sharded: scatter to
       │                 ▼  every shard group
       └──merged responses── gather/merge

The gateway speaks the *same* NDJSON protocol as a single
:class:`~repro.service.server.AlignmentServer` — both run the session
layer of :mod:`repro.service.session` — so the service client
(:class:`~repro.service.client.AsyncServiceClient`, with or without a
retry policy) and the loadgen point at a cluster unchanged.  Requests
route by consistent-hashing the read id (pair id for pairs) onto a
replica; sharded clusters scatter each align request to every shard
group and merge under :func:`repro.cluster.merge.merge_align_payloads`.

Resilience is composed from :mod:`repro.faults`, one layer per failure
mode:

- a per-backend :class:`~repro.faults.breaker.CircuitBreaker` stops
  routing onto a backend that keeps failing (fast local decision);
- the health loop pings every backend and **ejects** one after
  ``health_failures`` consecutive misses (it leaves the hash ring, so
  new keys remap away) and **readmits** it after ``health_successes``
  consecutive answers;
- connection errors and retryable sheds fail over to the next replica
  in the ring's deterministic preference order — each request is on
  exactly one backend at a time, so no backend repeats another's work;
- **no admission queue of its own**: each backend's batcher is the one
  bounded, deadline-aware queue on a request's path; every backend
  attempt carries what is left of the budget (the request's, else
  ``default_budget_ms``), and a full cluster answers ``overloaded``;
- **live ring reconciliation**: when the supervisor restarts a dead
  replica it announces the fresh endpoint via
  :meth:`ClusterGateway.notify_endpoint`; the gateway re-probes it and
  readmits it to the ring with a clean breaker — no operator, no
  manual readmit — and a crash-looping replica the supervisor gave up
  on is **retired** permanently (alert metric, never routed again);
- the session layer's idempotency cache dedups client retries
  (store-before-write), and every backend call carries a per-shard
  idempotency key derived from the client's, so a backend killed
  mid-batch and a client retry can never double-compute into the
  response stream.

Instrumentation: ``route``/``gather`` :mod:`repro.obs` spans
per request, per-backend counters/gauges in a
:class:`~repro.service.metrics.MetricsRegistry`, and a ``stats``
response aggregating every backend snapshot via
:meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

import asyncio
import logging
import time
import uuid
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro import obs
from repro.cluster.merge import merge_align_payloads
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.topology import ClusterTopology
from repro.faults.breaker import STATE_CODES, CircuitBreaker
from repro.service.batcher import QueueTimeoutShed
from repro.service.client import AsyncServiceClient
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    ERR_BUSY,
    ERR_OVERLOADED,
    ERR_QUEUE_TIMEOUT,
    RETRYABLE_ERRORS,
    TYPE_ALIGN,
    TYPE_ALIGN_PAIR,
    AlignRequest,
    ServiceError,
)
from repro.service.session import NdjsonFrontEnd

logger = logging.getLogger("repro.cluster")

#: Response fields that are transport framing or client-side, not payload.
_FRAMING_KEYS = ("id", "ok", "meta")

#: The gateway counter each typed shed it answers with increments.
_SHED_COUNTERS = {ERR_BUSY: "shed_busy_total",
                  ERR_OVERLOADED: "shed_queue_full_total",
                  ERR_QUEUE_TIMEOUT: "shed_queue_timeout_total"}


@dataclass
class GatewayConfig:
    """Every gateway knob in one place (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral; read gateway.port
    unix_path: Optional[str] = None
    vnodes: int = DEFAULT_VNODES     # ring points per backend
    connect_timeout_s: float = 10.0
    request_timeout_s: float = 30.0  # 0 disables
    health_interval_s: float = 0.5   # 0 disables the health loop
    health_timeout_s: float = 2.0    # per-ping deadline
    health_failures: int = 3         # consecutive misses → eject
    health_successes: int = 2        # consecutive answers → readmit
    breaker_threshold: int = 5
    breaker_window_s: float = 10.0
    breaker_cooldown_s: float = 1.0
    breaker_probes: int = 1
    idempotency_capacity: int = 4096
    default_budget_ms: float = 0.0   # applied when a request has none

    def __post_init__(self) -> None:
        if self.default_budget_ms < 0:
            raise ValueError(f"default_budget_ms must be >= 0, "
                             f"got {self.default_budget_ms}")
        if self.health_failures < 1:
            raise ValueError(
                f"health_failures must be >= 1, got {self.health_failures}")
        if self.health_successes < 1:
            raise ValueError(f"health_successes must be >= 1, "
                             f"got {self.health_successes}")
        if self.request_timeout_s < 0:
            raise ValueError(f"request_timeout_s must be >= 0, "
                             f"got {self.request_timeout_s}")
        if self.idempotency_capacity < 1:
            raise ValueError(f"idempotency_capacity must be >= 1, "
                             f"got {self.idempotency_capacity}")


class BackendHandle:
    """One backend as the gateway sees it: client + breaker + health.

    The handle holds one :class:`AsyncServiceClient` (one multiplexed
    connection per backend, redialled by the client after it dies)
    with **no** retry policy — the gateway owns failover, and a client
    that retried on its own would hide exactly the failures the router
    must see.
    """

    def __init__(self, backend_id: str, endpoint: str, shard: int,
                 config: GatewayConfig):
        self.backend_id = backend_id
        self.endpoint = endpoint
        self.shard = shard
        self.breaker = self._fresh_breaker(config)
        self.healthy = True
        self.retired = False
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self._config = config
        self.client = self._fresh_client(endpoint, config)

    @staticmethod
    def _fresh_client(endpoint: str,
                      config: GatewayConfig) -> AsyncServiceClient:
        return AsyncServiceClient(endpoint,
                                  timeout_s=config.connect_timeout_s)

    @staticmethod
    def _fresh_breaker(config: GatewayConfig) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            window_s=config.breaker_window_s,
            cooldown_s=config.breaker_cooldown_s,
            half_open_probes=config.breaker_probes)

    def adopt_endpoint(self, endpoint: str) -> AsyncServiceClient:
        """Point the handle at a restarted backend's fresh address.

        The client, breaker and health streaks reset with it: they
        describe the dead process, and carrying an open breaker into the
        new one would keep shedding a replica that is perfectly fine.
        The caller closes the returned client, the dead process's.
        """
        stale = self.client
        self.endpoint = endpoint
        self.client = self._fresh_client(endpoint, self._config)
        self.breaker = self._fresh_breaker(self._config)
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        return stale

    def as_dict(self) -> Dict[str, Any]:
        return {
            "endpoint": self.endpoint,
            "shard": self.shard,
            "healthy": self.healthy,
            "retired": self.retired,
            "breaker": self.breaker.as_dict(),
        }


class _BackendUnavailable(Exception):
    """This attempt failed in a way the router may absorb (next replica).

    ``code`` is what the gateway answers if no replica succeeds: the
    backend's own shed code, or ``busy`` when it never answered.
    """

    def __init__(self, message: str, code: str = ERR_BUSY):
        super().__init__(message)
        self.code = code


class ClusterGateway(NdjsonFrontEnd):
    """NDJSON gateway scattering/routing over a cluster of backends.

    The NDJSON session (framing, decoding, idempotency, drain) is
    :class:`~repro.service.session.NdjsonFrontEnd`'s; this class routes
    each admitted align request.

    Args:
        topology: cluster shape with every backend's bound endpoint
            filled in (see :meth:`~repro.cluster.topology.
            ClusterTopology.with_endpoints`).
        config: gateway knobs.
        metrics: optional shared registry (a fresh one by default).
    """

    span_name = "gw_request"
    category = "cluster"

    def __init__(self, topology: ClusterTopology,
                 config: Optional[GatewayConfig] = None,
                 metrics: Optional[MetricsRegistry] = None):
        for spec in topology.backends:
            if not spec.endpoint:
                raise ValueError(
                    f"backend {spec.backend_id} has no endpoint; "
                    f"call topology.with_endpoints() first")
        super().__init__(config or GatewayConfig(),
                         metrics or MetricsRegistry())
        self.config: GatewayConfig
        self.topology = topology
        self.handles: Dict[str, BackendHandle] = {
            spec.backend_id: BackendHandle(
                spec.backend_id, spec.endpoint, spec.shard, self.config)
            for spec in topology.backends}
        # One ring per shard group; membership tracks health.
        self._rings: Dict[int, HashRing] = {
            shard: HashRing(
                [spec.backend_id for spec in topology.shard_group(shard)],
                vnodes=self.config.vnodes)
            for shard in range(topology.shards)}
        self._health_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._session = uuid.uuid4().hex[:12]
        for backend_id in self.handles:
            self.metrics.set_gauge(f"backend_{backend_id}_healthy", 1)
            self.metrics.set_gauge(f"backend_{backend_id}_breaker_state",
                                   STATE_CODES["closed"])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        if self._listener is not None:
            raise RuntimeError("gateway already started")
        await self._listen()
        if self.config.health_interval_s > 0:
            self._health_task = asyncio.ensure_future(self._health_loop())
        # Captured so supervisor threads can bridge membership events
        # onto this loop (notify_endpoint / notify_retired).
        self._loop = asyncio.get_running_loop()
        logger.info("cluster gateway on %s (%dx%d backends)", self.endpoint,
                    self.topology.shards, self.topology.replicas)

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, close backends."""
        if self._listener is None:
            return
        self._stop_listening()
        await self._drain_responses()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        for handle in self.handles.values():
            await handle.client.close()
        logger.info("gateway drained and stopped: %s",
                    self.metrics.format_line())
        self._listener = None

    # ------------------------------------------------------------------ #
    # Align routing
    # ------------------------------------------------------------------ #

    def _admit(self, request: AlignRequest, conn_id: int,
               span: Any) -> Awaitable[Dict[str, Any]]:
        # A request budget bounds the whole gateway round trip: every
        # backend attempt carries what is left of it, and the wait is
        # capped a little past it.
        deadline, timeout = self._deadline(
            request.budget_ms or self.config.default_budget_ms)
        return asyncio.wait_for(self._route(request, conn_id, deadline),
                                timeout)

    def _routing_key(self, request: AlignRequest) -> str:
        if request.type == TYPE_ALIGN_PAIR:
            return request.pair_id or request.reads[0].read_id
        return request.reads[0].read_id

    def _idem_base(self, request: AlignRequest, conn_id: int) -> str:
        # Derive backend keys from the client's key when present so a
        # client retry deduplicates on the backends too; otherwise a
        # gateway-unique base (failovers of one logical request still
        # share it).  The connection id matters: request ids are only
        # unique per client connection, so a key without it would
        # collide across connections and replay a stranger's cached
        # response from a backend's idempotency cache.
        if request.idempotency_key is not None:
            return f"gw-{request.idempotency_key}"
        return f"gw-{self._session}-c{conn_id}-{request.request_id}"

    def _candidates(self, shard: int, key: str) -> List[BackendHandle]:
        """Healthy replicas of ``shard`` in deterministic preference
        order; falls back to the full (possibly unhealthy) group when
        everything is ejected — stale health info must degrade to *an
        attempt*, not an instant failure.  Retired backends (crash
        loops the supervisor gave up on) are never candidates."""
        ring = self._rings[shard]
        if len(ring):
            ids = ring.preference(key)
        else:
            ids = [spec.backend_id
                   for spec in self.topology.shard_group(shard)]
        return [self.handles[bid] for bid in ids
                if not self.handles[bid].retired]

    async def _route(self, request: AlignRequest, conn_id: int,
                     deadline: Optional[float]) -> Dict[str, Any]:
        key = self._routing_key(request)
        idem_base = self._idem_base(request, conn_id)
        try:
            if not self.topology.sharded:
                with obs.span("route", "cluster", key=key, shard=0):
                    return await self._call_group(0, key, request,
                                                  f"{idem_base}#s0",
                                                  deadline)
            # Scatter to every shard group, gather, merge
            # deterministically.
            self.metrics.inc("scatters_total")
            with obs.span("gather", "cluster", key=key,
                          shards=self.topology.shards):
                results = await asyncio.gather(
                    *(self._call_group(shard, key, request,
                                       f"{idem_base}#s{shard}", deadline)
                      for shard in range(self.topology.shards)))
            return merge_align_payloads(list(enumerate(results)))
        except (_BackendUnavailable, ServiceError) as exc:
            counter = _SHED_COUNTERS.get(exc.code)
            if counter is not None:
                self.metrics.inc(counter)
            if not isinstance(exc, _BackendUnavailable):
                raise
            # No replica served: once per request, not per shard group.
            self.metrics.inc("unroutable_total")
            raise ServiceError(exc.code, f"no routable backend: {exc}")

    async def _call_group(self, shard: int, key: str,
                          request: AlignRequest, idem_key: str,
                          deadline: Optional[float]) -> Dict[str, Any]:
        """One logical call against ``shard``'s replica group: failover
        down the preference order.

        The request is on one backend at a time.  A failure the router
        may absorb (:class:`_BackendUnavailable`) moves it to the next
        candidate and counts a failover; any other error propagates.
        When every candidate has failed, the request is shed with the
        last failure's code: ``busy`` and ``overloaded`` are retryable,
        so the client's RetryPolicy backs off while health, breakers
        and backend queues recover.
        """
        candidates = self._candidates(shard, key)
        failure = _BackendUnavailable(
            f"shard {shard}: every replica retired or ejected")
        with obs.span("route", "cluster", key=key, shard=shard,
                      primary=(candidates[0].backend_id
                               if candidates else None)):
            for attempt, handle in enumerate(candidates):
                if attempt:
                    self.metrics.inc("failovers_total")
                try:
                    return await self._call_backend(handle, request,
                                                    idem_key, deadline)
                except _BackendUnavailable as exc:
                    failure = exc
        raise failure

    async def _call_backend(self, handle: BackendHandle,
                            request: AlignRequest, idem_key: str,
                            deadline: Optional[float]) -> Dict[str, Any]:
        """One attempt on one backend, carrying the remaining budget;
        raises :class:`_BackendUnavailable` for anything the router
        should absorb by moving on."""
        bid = handle.backend_id
        budget_ms: Optional[float] = None
        if deadline is not None:
            budget_ms = round((deadline - time.monotonic()) * 1000.0, 3)
            if budget_ms <= 0:
                raise QueueTimeoutShed(f"{bid}: budget spent before "
                                       f"dispatch")
        if not handle.breaker.allow():
            self.metrics.inc(f"backend_{bid}_sheds_total")
            raise _BackendUnavailable(f"{bid}: circuit breaker open")
        self.metrics.inc(f"backend_{bid}_requests_total")
        client = handle.client
        try:
            if request.type == TYPE_ALIGN:
                obj = await client.align(request.reads[0],
                                         idempotency_key=idem_key,
                                         budget_ms=budget_ms)
            else:
                obj = await client.align_pair(
                    request.reads[0], request.reads[1],
                    pair_id=request.pair_id, idempotency_key=idem_key,
                    budget_ms=budget_ms)
        except ServiceError as exc:
            if exc.code in RETRYABLE_ERRORS:
                # The backend is shedding (busy/overloaded): a replica
                # may have capacity, so this is absorbable — but it
                # still counts against the backend's breaker so a
                # persistently-shedding backend stops being picked.
                handle.breaker.record_failure()
                self.metrics.inc(f"backend_{bid}_errors_total")
                raise _BackendUnavailable(f"{bid}: {exc.code}",
                                          exc.code) from exc
            # Any other typed answer proves the backend alive.
            handle.breaker.record_success()
            self._sync_breaker_gauge(handle)
            raise
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError) as exc:
            handle.breaker.record_failure()
            self.metrics.inc(f"backend_{bid}_errors_total")
            raise _BackendUnavailable(f"{bid}: {exc}") from exc
        except asyncio.CancelledError:
            # The caller's deadline ran out: a timeout, like above.
            handle.breaker.record_failure()
            self._sync_breaker_gauge(handle)
            raise
        handle.breaker.record_success()
        self._sync_breaker_gauge(handle)
        return {k: v for k, v in obj.items() if k not in _FRAMING_KEYS}

    # ------------------------------------------------------------------ #
    # Health loop
    # ------------------------------------------------------------------ #

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            await asyncio.gather(
                *(self._health_check(handle)
                  for handle in self.handles.values()
                  if not handle.retired))

    async def _health_check(self, handle: BackendHandle) -> None:
        client = handle.client
        try:
            await asyncio.wait_for(client.ping(),
                                   self.config.health_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ServiceError):
            handle.consecutive_successes = 0
            handle.consecutive_failures += 1
            await client.close()
            if (handle.healthy and handle.consecutive_failures
                    >= self.config.health_failures):
                self._eject(handle)
            return
        handle.consecutive_failures = 0
        handle.consecutive_successes += 1
        if (not handle.healthy and handle.consecutive_successes
                >= self.config.health_successes):
            self._readmit(handle)
        self._sync_breaker_gauge(handle)

    def _eject(self, handle: BackendHandle) -> None:
        handle.healthy = False
        ring = self._rings[handle.shard]
        if handle.backend_id in ring:
            ring.remove(handle.backend_id)
        self.metrics.inc("backend_ejects_total")
        self.metrics.set_gauge(f"backend_{handle.backend_id}_healthy", 0)
        obs.instant("backend_eject", "cluster",
                    backend=handle.backend_id, shard=handle.shard)
        logger.warning("ejected backend %s (%d consecutive ping "
                       "failures)", handle.backend_id,
                       handle.consecutive_failures)

    def _readmit(self, handle: BackendHandle) -> None:
        handle.healthy = True
        ring = self._rings[handle.shard]
        if handle.backend_id not in ring:
            ring.add(handle.backend_id)
        self.metrics.inc("backend_readmits_total")
        self.metrics.set_gauge(f"backend_{handle.backend_id}_healthy", 1)
        obs.instant("backend_readmit", "cluster",
                    backend=handle.backend_id, shard=handle.shard)
        logger.info("readmitted backend %s", handle.backend_id)

    def _sync_breaker_gauge(self, handle: BackendHandle) -> None:
        self.metrics.set_gauge(
            f"backend_{handle.backend_id}_breaker_state",
            STATE_CODES[handle.breaker.state])

    # ------------------------------------------------------------------ #
    # Live ring reconciliation (supervisor → gateway membership bridge)
    # ------------------------------------------------------------------ #

    async def reconcile_backend(self, backend_id: str,
                                endpoint: str) -> bool:
        """Adopt a restarted backend: new endpoint, probe, readmit.

        Called when the supervisor reports a replica respawned on a
        fresh port.  The handle's connection, breaker and health
        streaks are reset (they describe the dead process), the new
        endpoint is probed once, and on a pong the backend rejoins its
        shard's ring immediately — no waiting out ``health_successes``
        probes, no manual readmission.  If the probe misses, the
        backend stays ejected and the regular health loop (now pointed
        at the new endpoint) readmits it when it starts answering.
        Returns True when the backend was readmitted.
        """
        handle = self.handles.get(backend_id)
        if handle is None or handle.retired:
            return False
        self.metrics.inc("backend_restarts_total")
        await handle.adopt_endpoint(endpoint).close()
        self._sync_breaker_gauge(handle)
        obs.instant("backend_reconcile", "cluster", backend=backend_id,
                    endpoint=endpoint)
        client = handle.client
        try:
            await asyncio.wait_for(  # dial + ping
                client.ping(), self.config.connect_timeout_s
                + self.config.health_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ServiceError) as exc:
            logger.warning("reconcile probe of %s at %s failed: %s",
                           backend_id, endpoint, exc)
            await client.close()
            if handle.healthy:
                self._eject(handle)
            return False
        handle.consecutive_failures = 0
        if not handle.healthy:
            self._readmit(handle)
        else:
            # Restart landed inside the health-failure window: the
            # handle was never ejected, but make ring membership
            # explicit anyway (idempotent).
            self._rings[handle.shard].ensure(backend_id)
        self.metrics.inc("backend_reconciles_total")
        logger.info("reconciled backend %s onto %s", backend_id,
                    endpoint)
        return True

    def retire_backend(self, backend_id: str, reason: str = "") -> None:
        """Permanently remove a crash-looping backend from routing.

        The alert metric ``backend_crash_loop_ejects_total`` is the
        operator's signal: the supervisor gave up restarting this
        replica and the cluster is running short-handed.
        """
        handle = self.handles.get(backend_id)
        if handle is None or handle.retired:
            return
        handle.retired = True
        handle.healthy = False
        self._rings[handle.shard].discard(backend_id)
        self.metrics.inc("backend_crash_loop_ejects_total")
        self.metrics.set_gauge(f"backend_{backend_id}_healthy", 0)
        obs.instant("backend_retire", "cluster", backend=backend_id,
                    reason=reason)
        logger.error("retired backend %s permanently: %s", backend_id,
                     reason or "crash loop")
        try:
            task = asyncio.ensure_future(handle.client.close())
            self._track(task)
        except RuntimeError:
            pass  # no running loop (sync test context): nothing to close

    def notify_endpoint(self, backend_id: str, endpoint: str) -> None:
        """Thread-safe restart notification (supervisor monitor → loop)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._spawn_reconcile, backend_id,
                                  endpoint)

    def notify_retired(self, backend_id: str, reason: str = "") -> None:
        """Thread-safe crash-loop ejection notification."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self.retire_backend, backend_id,
                                  reason)

    def _spawn_reconcile(self, backend_id: str, endpoint: str) -> None:
        task = asyncio.ensure_future(
            self.reconcile_backend(backend_id, endpoint))
        self._track(task)

    def supervisor_listener(self) -> Callable[[Any], None]:
        """An ``on_event`` callback for ``ClusterSupervisor.
        start_monitor`` wiring restarts and crash-loop ejects into this
        gateway.  Safe to call from the monitor thread."""
        def on_event(event: Any) -> None:
            if event.kind == "restarted":
                self.notify_endpoint(event.backend_id, event.endpoint)
            elif event.kind == "ejected":
                self.notify_retired(event.backend_id, event.detail)
        return on_event

    # ------------------------------------------------------------------ #
    # Stats aggregation
    # ------------------------------------------------------------------ #

    async def _backend_stats(self, handle: BackendHandle
                             ) -> Optional[Dict[str, Any]]:
        try:
            return await asyncio.wait_for(
                handle.client.stats(), self.config.health_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ServiceError):
            return None

    async def stats_payload(self) -> Dict[str, Any]:
        """Cluster-wide ``stats``: gateway + per-backend + merged view."""
        per_backend = await asyncio.gather(
            *(self._backend_stats(handle)
              for handle in self.handles.values()))
        backends: Dict[str, Any] = {}
        snapshots: List[Dict[str, Any]] = []
        for handle, stats in zip(self.handles.values(), per_backend):
            entry = handle.as_dict()
            entry["reachable"] = stats is not None
            if stats is not None:
                entry["stats"] = stats
                snapshots.append(stats.get("metrics", {}))
            backends[handle.backend_id] = entry
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "topology": self.topology.describe(),
            "gateway": self.metrics.snapshot(),
            "backends": backends,
            "cluster_metrics": MetricsRegistry.merge(snapshots),
        }
