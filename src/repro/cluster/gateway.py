"""The cluster gateway: one NDJSON front door over N backends.

Wiring (one process, one event loop)::

    clients ──decode──▶ route ──────────────▶ BackendHandle(s)
       ▲                 │  replicated: one     (AsyncServiceClient
       │                 │  replica via the      + CircuitBreaker)
       │                 │  hash ring, with
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

- a per-backend :class:`~repro.faults.breaker.CircuitBreaker` is the
  one routability signal: failed requests *and* missed health pings
  open it, and an open breaker is skipped; after the cooldown, a
  request or a pong is the half-open probe that closes it again;
- connection errors and retryable sheds fail over to the next replica
  in the ring's deterministic preference order — each request is on
  exactly one backend at a time, so no backend repeats another's work;
  the rings themselves never change;
- **no admission queue of its own**: each backend's batcher is the one
  bounded, deadline-aware queue on a request's path; every backend
  attempt carries what is left of the budget (the request's, else
  ``default_budget_ms``), and a full cluster answers ``overloaded``;
- **live reconciliation**: when the supervisor restarts a dead replica
  its listener (:meth:`ClusterGateway.supervisor_listener`) hands the
  fresh endpoint to :meth:`ClusterGateway.reconcile_backend`, which
  probes it and adopts it with a clean breaker — no operator, no
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
from functools import partial
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro import obs
from repro.cluster.merge import merge_align_payloads
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.topology import ClusterTopology
from repro.faults.breaker import CLOSED, OPEN, STATE_CODES, CircuitBreaker
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
    health_timeout_s: float = 1.0    # per-ping deadline
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
        if self.request_timeout_s < 0:
            raise ValueError(f"request_timeout_s must be >= 0, "
                             f"got {self.request_timeout_s}")
        if self.idempotency_capacity < 1:
            raise ValueError(f"idempotency_capacity must be >= 1, "
                             f"got {self.idempotency_capacity}")


class BackendHandle:
    """One backend as the gateway sees it: client + breaker.

    The handle holds one :class:`AsyncServiceClient` (one multiplexed
    connection per backend, redialled by the client after it dies)
    with **no** retry policy — the gateway owns failover, and a client
    that retried on its own would hide exactly the failures the router
    must see.  Its breaker is the backend's only routability state;
    ``on_transition`` mirrors every state change, of this breaker and
    of each fresh one :meth:`adopt` installs.
    """

    def __init__(self, backend_id: str, endpoint: str, shard: int,
                 config: GatewayConfig,
                 on_transition: Callable[[str, str], None]):
        self.backend_id = backend_id
        self.shard = shard
        self.retired = False
        self._config = config
        self._on_transition = on_transition
        self.breaker = self._fresh_breaker()
        self.client = self.dial(endpoint)

    @property
    def endpoint(self) -> str:
        return self.client.endpoint

    def dial(self, endpoint: str) -> AsyncServiceClient:
        """A client for ``endpoint``; it connects on first use."""
        return AsyncServiceClient(endpoint,
                                  timeout_s=self._config.connect_timeout_s)

    def _fresh_breaker(self) -> CircuitBreaker:
        config = self._config
        return CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            window_s=config.breaker_window_s,
            cooldown_s=config.breaker_cooldown_s,
            half_open_probes=config.breaker_probes,
            on_transition=self._on_transition)

    def adopt(self, client: AsyncServiceClient) -> AsyncServiceClient:
        """Switch to a restarted backend's client (from :meth:`dial`).

        The breaker resets with it: the old one describes the dead
        process, and carrying it open into the new one would keep
        shedding a replica that is perfectly fine.  The caller closes
        the returned client, the dead process's.
        """
        stale, old_state = self.client, self.breaker.state
        self.client = client
        self.breaker = self._fresh_breaker()
        if old_state != CLOSED:
            self._on_transition(old_state, CLOSED)
        return stale

    def as_dict(self) -> Dict[str, Any]:
        return {
            "endpoint": self.endpoint,
            "shard": self.shard,
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
                spec.backend_id, spec.endpoint, spec.shard, self.config,
                partial(self._on_breaker_transition, spec.backend_id))
            for spec in topology.backends}
        # One ring per shard group, fixed: routability is the breakers'.
        self._rings: Dict[int, HashRing] = {
            shard: HashRing(
                [spec.backend_id for spec in topology.shard_group(shard)],
                vnodes=self.config.vnodes)
            for shard in range(topology.shards)}
        self._health_task: Optional[asyncio.Task] = None
        self._session = uuid.uuid4().hex[:12]
        for backend_id in self.handles:
            self.metrics.set_gauge(f"backend_{backend_id}_breaker_state",
                                   STATE_CODES[CLOSED])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        if self._listener is not None:
            raise RuntimeError("gateway already started")
        await self._listen()
        if self.config.health_interval_s > 0:
            self._health_task = asyncio.ensure_future(self._health_loop())
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
        so the client's RetryPolicy backs off while breakers and
        backend queues recover.
        """
        # Retired backends (crash loops the supervisor gave up on) are
        # never candidates; an open breaker skips its attempt below.
        candidates = [self.handles[bid]
                      for bid in self._rings[shard].preference(key)
                      if not self.handles[bid].retired]
        failure = _BackendUnavailable(
            f"shard {shard}: every replica retired")
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
            raise
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError) as exc:
            handle.breaker.record_failure()
            self.metrics.inc(f"backend_{bid}_errors_total")
            raise _BackendUnavailable(f"{bid}: {exc}") from exc
        except asyncio.CancelledError:
            # The caller's deadline ran out: a timeout, like above.
            handle.breaker.record_failure()
            raise
        handle.breaker.record_success()
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
        """One ping, fed to the backend's breaker: a miss is a failure,
        and a pong closes the breaker when the ping was its half-open
        probe.  A ping never takes a slot a request holds."""
        client, breaker = handle.client, handle.breaker
        probing = breaker.try_probe()
        try:
            await asyncio.wait_for(client.ping(),
                                   self.config.health_timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ServiceError):
            await client.close()
            if handle.breaker is breaker:  # else: a restart was adopted
                breaker.record_failure()
            return
        if probing and handle.breaker is breaker:
            breaker.record_success()

    def _on_breaker_transition(self, backend_id: str, old_state: str,
                               new_state: str) -> None:
        self.metrics.set_gauge(f"backend_{backend_id}_breaker_state",
                               STATE_CODES[new_state])
        if new_state == OPEN:
            self.metrics.inc("backend_breaker_opens_total")
        obs.instant("backend_breaker", "cluster", backend=backend_id,
                    old=old_state, new=new_state)
        # Losing a backend is the news; a dead one's probe cycle is not.
        logger.log(logging.WARNING if old_state == CLOSED else logging.INFO,
                   "backend %s breaker %s -> %s", backend_id, old_state,
                   new_state)

    # ------------------------------------------------------------------ #
    # Live reconciliation (supervisor → gateway bridge)
    # ------------------------------------------------------------------ #

    async def reconcile_backend(self, backend_id: str,
                                endpoint: str) -> bool:
        """Adopt a restarted backend: probe, then switch to it.

        Called when the supervisor reports a replica respawned on a
        fresh port.  The new endpoint is probed once before the handle
        switches to it with a fresh breaker (the old client and breaker
        describe the dead process).  On a pong the backend is routable
        at once; on a miss the fresh breaker is tripped, so the backend
        takes no traffic until a later ping answers after the cooldown
        — readmission is earned.  Returns True when the probe answered.
        """
        handle = self.handles.get(backend_id)
        if handle is None or handle.retired:
            return False
        self.metrics.inc("backend_restarts_total")
        obs.instant("backend_reconcile", "cluster", backend=backend_id,
                    endpoint=endpoint)
        client = handle.dial(endpoint)
        try:
            await asyncio.wait_for(  # dial + ping
                client.ping(), self.config.connect_timeout_s
                + self.config.health_timeout_s)
            answered = True
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ServiceError) as exc:
            logger.warning("reconcile probe of %s at %s failed: %s",
                           backend_id, endpoint, exc)
            await client.close()
            answered = False
        if handle.retired:  # retired while the probe was out
            await client.close()
            return False
        stale = handle.adopt(client)
        if answered:
            self.metrics.inc("backend_reconciles_total")
            logger.info("reconciled backend %s onto %s", backend_id,
                        endpoint)
        else:
            handle.breaker.trip()
        await stale.close()
        return answered

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
        self.metrics.inc("backend_crash_loop_ejects_total")
        obs.instant("backend_retire", "cluster", backend=backend_id,
                    reason=reason)
        logger.error("retired backend %s permanently: %s", backend_id,
                     reason or "crash loop")
        try:
            task = asyncio.ensure_future(handle.client.close())
            self._track(task)
        except RuntimeError:
            pass  # no running loop (sync test context): nothing to close

    def supervisor_listener(self) -> Callable[[Any], None]:
        """An ``on_event`` callback for ``ClusterSupervisor.
        start_monitor`` wiring restarts and crash-loop ejects into this
        gateway.  Call it on the gateway's loop; the callback it returns
        is safe to call from the monitor thread."""
        loop = asyncio.get_running_loop()

        def on_event(event: Any) -> None:
            if loop.is_closed():
                return
            if event.kind == "restarted":
                loop.call_soon_threadsafe(lambda: self._track(
                    asyncio.ensure_future(self.reconcile_backend(
                        event.backend_id, event.endpoint))))
            elif event.kind == "ejected":
                loop.call_soon_threadsafe(self.retire_backend,
                                          event.backend_id, event.detail)
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
