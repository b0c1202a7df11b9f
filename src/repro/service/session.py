"""The NDJSON session layer shared by every served front end.

Both :class:`~repro.service.server.AlignmentServer` and
:class:`~repro.cluster.gateway.ClusterGateway` speak the protocol of
:mod:`repro.service.protocol` through :class:`NdjsonFrontEnd`, which
owns everything about a client session that does not depend on *how* an
align request is executed:

- binding a TCP or UNIX-domain listener whose lines are capped at
  ``MAX_LINE_BYTES`` (:attr:`~NdjsonFrontEnd.port`,
  :attr:`~NdjsonFrontEnd.endpoint`);
- the per-connection read loop: an oversize line is answered with
  ``bad_request`` and the connection closed, blank lines are skipped,
  and ``connections``/``connections_total`` count sessions;
- decoding each line, answering ``bad_request`` and ``ping`` inline and
  ``stats`` from a tracked task;
- one locked write per response line, so concurrent responses on one
  connection never shear (a write hook lets the server inject
  ``conn_write`` faults);
- idempotency: an align request whose ``idem`` key already completed is
  replayed from the cache, and a fresh payload is stored *before* its
  write, so a response lost with its connection still dedups the retry;
- the request lifecycle: ``align`` is refused with ``shutting_down``
  once a drain began, every admitted request's response is a tracked
  task that shutdown drains, and every failure reaches the wire as its
  :class:`~repro.service.protocol.ServiceError` code (a deadline miss as
  ``timeout``, anything unexpected as ``internal``);
- the latency budget: :meth:`NdjsonFrontEnd._deadline` turns a request's
  ``budget_ms`` into the instant its budget runs out and caps the wait
  for its answer a little past it, so a typed ``queue_timeout`` shed
  wins the race against the blunt ``timeout``.

A front end supplies only :meth:`NdjsonFrontEnd._admit` — the server
submits to its batcher, the gateway routes to a backend — and
``stats_payload``.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

from repro import obs
from repro.faults.injectors import IdempotencyCache
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    MAX_LINE_BYTES,
    TYPE_ALIGN_PAIR,
    TYPE_PING,
    TYPE_STATS,
    AlignRequest,
    ProtocolError,
    ServiceError,
    decode_request,
    error_response,
    success_response,
)

logger = logging.getLogger("repro.service")

#: Slack past a request's budget before the front end's blunt timeout
#: fires, so deadline sheds surface as typed ``queue_timeout`` responses.
BUDGET_GRACE_S = 0.05


@dataclass
class Connection:
    """One client session: its writer, write lock and id."""

    writer: asyncio.StreamWriter
    conn_id: int
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


#: ``async hook(conn, data) -> consumed``: runs before every response
#: write; returning True means the hook disposed of ``data`` itself.
WriteHook = Callable[[Connection, bytes], Awaitable[bool]]


class NdjsonFrontEnd:
    """Base class of the NDJSON front ends (see the module docstring).

    Args:
        config: the front end's config; ``host``, ``port``,
            ``unix_path``, ``request_timeout_s`` and
            ``idempotency_capacity`` are read here.
        metrics: the registry every session counter lands in.
    """

    #: Name and trace category of the per-request span.
    span_name = "request"
    category = "service"

    def __init__(self, config: Any, metrics: MetricsRegistry):
        self.config = config
        self.metrics = metrics
        self._idempotency = IdempotencyCache(config.idempotency_capacity)
        self._listener: Optional[asyncio.AbstractServer] = None
        self._response_tasks: Set[asyncio.Task] = set()
        self._conn_ids = itertools.count(1)
        self._write_hook: Optional[WriteHook] = None
        self._shutting_down = False
        self._started_at = 0.0

    # ------------------------------------------------------------------ #
    # What a front end supplies
    # ------------------------------------------------------------------ #

    def _admit(self, request: AlignRequest, conn_id: int,
               span: Any) -> Awaitable[Dict[str, Any]]:
        """Accept one align request; the awaitable yields its payload.

        Raise :class:`ServiceError` to refuse the request outright.
        ``conn_id`` is unique per client connection (request ids are
        only unique within one); ``span`` is the request's trace span.
        """
        raise NotImplementedError

    def stats_payload(self) -> Any:
        """The ``stats`` response body (a dict, or an awaitable of one)."""
        raise NotImplementedError

    def _deadline(self, budget_ms: Optional[float]
                  ) -> Tuple[Optional[float], Optional[float]]:
        """``(deadline, timeout)`` for a request carrying ``budget_ms``.

        ``deadline`` is the ``time.monotonic()`` reading at which the
        budget runs out (None without a budget); ``timeout`` bounds the
        wait for the answer: ``request_timeout_s`` (None when 0), capped
        at the budget plus :data:`BUDGET_GRACE_S`.
        """
        timeout = self.config.request_timeout_s or None
        if not budget_ms:
            return None, timeout
        budget_s = budget_ms / 1000.0
        capped = budget_s + BUDGET_GRACE_S
        return (time.monotonic() + budget_s,
                capped if timeout is None else min(timeout, capped))

    # ------------------------------------------------------------------ #
    # Listener lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> Optional[int]:
        """Bound TCP port (after ``start``), or None on UNIX sockets."""
        if self._listener is None or self.config.unix_path is not None:
            return None
        return self._listener.sockets[0].getsockname()[1]

    @property
    def endpoint(self) -> str:
        if self.config.unix_path is not None:
            return f"unix:{self.config.unix_path}"
        return f"{self.config.host}:{self.port}"

    async def _listen(self) -> None:
        cfg = self.config
        if cfg.unix_path is not None:
            self._listener = await asyncio.start_unix_server(
                self._serve_connection, path=cfg.unix_path,
                limit=MAX_LINE_BYTES)
        else:
            self._listener = await asyncio.start_server(
                self._serve_connection, host=cfg.host, port=cfg.port,
                limit=MAX_LINE_BYTES)
        self._shutting_down = False
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._listener is not None, "call start() first"
        try:
            await self._listener.serve_forever()
        except asyncio.CancelledError:
            pass

    def _stop_listening(self) -> None:
        """Refuse new connections and new align requests; work already
        admitted carries on until :meth:`_drain_responses`.

        Open connections stay up so their in-flight responses can still
        be written, which is why this does not await ``wait_closed()``:
        since Python 3.12 that waits for every client to hang up.
        """
        assert self._listener is not None
        self._shutting_down = True
        self._listener.close()

    async def _drain_responses(self) -> None:
        if self._response_tasks:
            await asyncio.gather(*list(self._response_tasks),
                                 return_exceptions=True)

    def _track(self, task: "asyncio.Future[Any]") -> None:
        """Keep ``task`` alive until done; shutdown drains it."""
        self._response_tasks.add(task)
        task.add_done_callback(self._response_tasks.discard)

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = Connection(writer=writer, conn_id=next(self._conn_ids))
        self.metrics.inc("connections_total")
        self.metrics.gauge("connections").inc()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(conn, error_response(
                        None, ERR_BAD_REQUEST, "request line too long"))
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    await self._dispatch(conn, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.metrics.gauge("connections").dec()
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, conn: Connection, line: str) -> None:
        self.metrics.inc("requests_total")
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self.metrics.inc("bad_requests_total")
            self.metrics.inc("errors_total")
            await self._write(conn, error_response(
                exc.request_id, ERR_BAD_REQUEST, str(exc)))
            return
        if request.type == TYPE_PING:
            await self._write(conn, success_response(request.request_id,
                                                     pong=True))
            return
        if request.type == TYPE_STATS:
            self._track(asyncio.ensure_future(
                self._respond_stats(conn, request)))
            return
        self.metrics.inc("pair_requests_total"
                         if request.type == TYPE_ALIGN_PAIR
                         else "align_requests_total")
        # The request span covers the whole lifecycle (admission →
        # execution → respond); it is detached because those stages hop
        # between tasks.
        span = obs.begin(self.span_name, self.category,
                         request_id=request.request_id, type=request.type)
        key = request.idempotency_key
        cached = self._idempotency.get(key) if key is not None else None
        if cached is not None:
            # A retry of work already completed: replay, never recompute.
            self.metrics.inc("idempotent_hits_total")
            obs.instant("idempotent_hit", self.category,
                        request_id=request.request_id)
            span.end(outcome="idempotent_hit")
            await self._write(conn, success_response(request.request_id,
                                                     **cached))
            return
        try:
            if self._shutting_down:
                raise ServiceError(ERR_SHUTTING_DOWN,
                                   f"{type(self).__name__} draining")
            result = self._admit(request, conn.conn_id, span)
        except ServiceError as exc:
            self.metrics.inc("errors_total")
            span.end(outcome=exc.code)
            await self._write(conn, error_response(
                request.request_id, exc.code, exc.message))
            return
        self.metrics.gauge("in_flight").inc()
        self._track(asyncio.ensure_future(
            self._respond(conn, request, result, span)))

    async def _respond(self, conn: Connection, request: AlignRequest,
                       result: Awaitable[Dict[str, Any]],
                       span: Any) -> None:
        started = time.monotonic()
        outcome = "ok"
        try:
            payload = await result
            if request.idempotency_key is not None:
                # Store before the write: a response lost to a dropped
                # connection must still dedup the client's retry.
                self._idempotency.put(request.idempotency_key, payload)
            self.metrics.inc("responses_total")
            line = success_response(request.request_id, **payload)
        except ServiceError as exc:
            self.metrics.inc("errors_total")
            outcome = exc.code
            line = error_response(request.request_id, exc.code,
                                  exc.message)
        except asyncio.TimeoutError:
            self.metrics.inc("timeouts_total")
            self.metrics.inc("errors_total")
            outcome = ERR_TIMEOUT
            line = error_response(
                request.request_id, ERR_TIMEOUT,
                f"deadline of {self.config.request_timeout_s}s exceeded")
        except Exception as exc:  # never leave a request unanswered
            self.metrics.inc("errors_total")
            outcome = ERR_INTERNAL
            logger.exception("request %s failed", request.request_id)
            line = error_response(request.request_id, ERR_INTERNAL,
                                  str(exc))
        finally:
            self.metrics.gauge("in_flight").dec()
            self.metrics.observe("latency_s", time.monotonic() - started)
        respond_span = _child_span("respond", self.category, span)
        await self._write(conn, line)
        respond_span.end()
        span.end(outcome=outcome)

    async def _respond_stats(self, conn: Connection,
                             request: AlignRequest) -> None:
        stats = self.stats_payload()
        if inspect.isawaitable(stats):
            stats = await stats
        await self._write(conn, success_response(request.request_id,
                                                 stats=stats))

    async def _write(self, conn: Connection, line: str) -> None:
        if conn.writer.is_closing():
            # The transport is already gone (client hung up, or an
            # injected drop tore it down); writing would only make the
            # event loop log spurious socket.send() errors.
            return
        data = line.encode("utf-8") + b"\n"
        if self._write_hook is not None and \
                await self._write_hook(conn, data):
            return
        try:
            # Response lines must reach the socket whole and unsheared;
            # per-connection serialisation across drain() is the point.
            async with conn.lock:  # repro-lint: disable=lock-across-await
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            # Client went away; the response is simply discarded.
            pass


def _child_span(name: str, category: str, parent: Any) -> Any:
    """A detached child span of ``parent`` (no-op when disabled)."""
    tracer = obs.get_tracer()
    if not tracer.enabled:
        return obs.NULL_SPAN
    return tracer.begin(name, category, parent_id=parent.span_id or None)
