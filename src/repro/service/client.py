"""The client for the alignment service.

:class:`AsyncServiceClient` multiplexes many in-flight requests over one
connection: a background reader task dispatches response lines to
per-request futures by id, so a single socket sustains arbitrary
concurrency (the loadgen drives ≥64 in-flight requests through one of
these).  It connects lazily, drops its connection when the connection
dies (EOF, reset, failed write, undecodable response line) and redials
on the next call.  Given a :class:`~repro.faults.retry.RetryPolicy` it
also retries connection failures and retryable errors
(``busy``/``overloaded``) with seeded backoff, stamping every align
request with an idempotency key reused across its attempts so retries
are deduplicated server-side (exactly-once results).

It speaks the NDJSON protocol of :mod:`repro.service.protocol` over TCP
or UNIX-domain sockets; callers without an event loop wrap it in
``asyncio.run`` (``repro obs export --connect`` does).
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from typing import Any, Callable, Dict, Optional, Tuple

from repro.faults.retry import RetryPolicy
from repro.genome.reads import Read
from repro.service.protocol import (
    MAX_LINE_BYTES,
    RETRYABLE_ERRORS,
    TYPE_PING,
    TYPE_STATS,
    ProtocolError,
    ServiceError,
    decode_response,
    encode_align,
    encode_align_pair,
    encode_control,
)

#: Failures of the connection itself (as opposed to a server's answer).
_CONNECTION_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError,
                      asyncio.IncompleteReadError)


def parse_endpoint(endpoint: str) -> Tuple[Optional[str], Optional[int],
                                           Optional[str]]:
    """``host:port`` or ``unix:/path`` → ``(host, port, unix_path)``."""
    if endpoint.startswith("unix:"):
        return None, None, endpoint[len("unix:"):]
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"endpoint must be host:port or unix:/path, got {endpoint!r}")
    return host or "127.0.0.1", int(port), None


class _RetryableError(Exception):
    """Internal wrapper marking an error the retry policy may absorb."""

    def __init__(self, inner: BaseException):
        super().__init__(str(inner))
        self.inner = inner


def _attach_meta(obj: Dict[str, Any], attempts: int) -> Dict[str, Any]:
    """Record how hard the client worked for this response.

    Retries used to be invisible to callers — a response that took five
    attempts looked identical to a first-try success, so load tests and
    operators could not tell a healthy server from one being papered
    over by client persistence.  Every align response now carries::

        "meta": {"attempts": <total tries>, "retries": <tries - 1>}
    """
    meta = obj.setdefault("meta", {})  # repro-lint: disable=PROTO501 -- observability field, read by operators/tests
    meta["attempts"] = attempts  # repro-lint: disable=PROTO501 -- read by loadgen reports and service tests
    meta["retries"] = attempts - 1  # repro-lint: disable=PROTO501 -- read by loadgen reports and service tests
    return obj


class AsyncServiceClient:
    """Multiplexing asyncio client that reconnects (and, with ``retry``,
    retries) on its own.

    Without ``retry`` every call is one attempt: a dead connection
    surfaces as :class:`ConnectionError` and the next call redials.
    With ``retry`` connection failures and ``busy``/``overloaded``
    answers are retried under the policy, and align requests carry an
    idempotency key — the caller's, or one generated per logical
    request — that is the *same* across its attempts.  Non-retryable
    errors propagate immediately.  ``timeout_s`` bounds each dial.

    Safe for concurrent use: callers that hit the same dead connection
    converge on one redial.  ``retries`` counts retried attempts and
    ``reconnects`` connections opened (the first one included).
    """

    def __init__(self, endpoint: str, retry: Optional[RetryPolicy] = None,
                 timeout_s: float = 10.0):
        self._address = parse_endpoint(endpoint)
        self.endpoint = endpoint
        self.retry = retry
        self._timeout_s = timeout_s
        self._ids = itertools.count(1)
        self._session = uuid.uuid4().hex[:12]
        self._keys = itertools.count(1)
        self._lock = asyncio.Lock()
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self.retries = 0
        self.reconnects = 0

    @classmethod
    async def connect(cls, host: Optional[str] = None,
                      port: Optional[int] = None,
                      unix_path: Optional[str] = None,
                      timeout_s: float = 10.0) -> "AsyncServiceClient":
        """An already-connected client (raises if the dial fails)."""
        if unix_path is not None:
            endpoint = f"unix:{unix_path}"
        elif host is None or port is None:
            raise ValueError("need host+port or unix_path")
        else:
            endpoint = f"{host}:{port}"
        return await cls.connect_endpoint(endpoint, timeout_s=timeout_s)

    @classmethod
    async def connect_endpoint(cls, endpoint: str,
                               timeout_s: float = 10.0
                               ) -> "AsyncServiceClient":
        client = cls(endpoint, timeout_s=timeout_s)
        await client._dial()
        return client

    # ------------------------------------------------------------------ #
    # Connection
    # ------------------------------------------------------------------ #

    def _connected(self) -> bool:
        return (self._writer is not None and not self._writer.is_closing()
                and self._reader_task is not None
                and not self._reader_task.done())

    async def _dial(self) -> None:
        """Open a fresh connection (callers on a live client hold
        ``_lock``)."""
        host, port, unix_path = self._address
        if unix_path is not None:
            opener = asyncio.open_unix_connection(unix_path,
                                                  limit=MAX_LINE_BYTES)
        else:
            opener = asyncio.open_connection(host, port,
                                             limit=MAX_LINE_BYTES)
        reader, writer = await asyncio.wait_for(opener, self._timeout_s)
        self._writer, self._pending = writer, {}
        self._reader_task = asyncio.ensure_future(
            self._read_loop(reader, writer, self._pending))
        self.reconnects += 1

    async def _read_loop(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         pending: Dict[str, "asyncio.Future[Dict[str, Any]]"]
                         ) -> None:
        # The loop's exit is the connection's death: the task is done,
        # so the next call redials, and every request still waiting on
        # this connection fails now instead of waiting forever.
        reason = "server closed the connection"
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    obj = decode_response(line)
                except ProtocolError:
                    continue
                future = pending.pop(str(obj.get("id")), None)
                if future is not None and not future.done():
                    future.set_result(obj)
        except ValueError as exc:
            # Not UTF-8, or longer than MAX_LINE_BYTES: the framing can
            # no longer be trusted, so the connection goes.
            reason = f"undecodable response line: {exc}"
        except OSError:
            pass
        finally:
            writer.close()
            for future in pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(reason))
            pending.clear()

    async def _request(self, line: str,
                       request_id: str) -> Dict[str, Any]:
        future: "asyncio.Future[Dict[str, Any]]" = \
            asyncio.get_event_loop().create_future()
        pending = self._pending
        try:
            # Holding the lock across the dial and drain() is the
            # contract: concurrent callers on a dead connection converge
            # on one redial, and request lines hit the socket whole and
            # in submission order.
            async with self._lock:  # repro-lint: disable=lock-across-await
                if not self._connected():
                    await self._dial()
                task, writer = self._reader_task, self._writer
                pending = self._pending
                pending[request_id] = future
                try:
                    writer.write(line.encode("utf-8") + b"\n")
                    await writer.drain()
                except OSError:
                    writer.close()
                    task.cancel()  # the read loop fails the rest
                    raise
            return await future
        except BaseException:
            # Leaving on any path but `await future` (failed write,
            # cancellation) orphans the future: read-loop teardown would
            # later fail it with nobody awaiting, and asyncio logs
            # "exception was never retrieved". Consume it here.
            pending.pop(request_id, None)
            if future.done() and not future.cancelled():
                future.exception()
            else:
                future.cancel()
            raise

    @staticmethod
    def _unwrap(obj: Dict[str, Any]) -> Dict[str, Any]:
        if not obj.get("ok"):
            raise ServiceError(obj.get("error", "unknown"),
                               obj.get("message", ""))
        return obj

    async def _attempt(self, encode: Callable[[str], str]
                       ) -> Dict[str, Any]:
        request_id = str(next(self._ids))
        return self._unwrap(
            await self._request(encode(request_id), request_id))

    async def _call(self, encode: Callable[[str], str],
                    key: Optional[str] = None) -> Dict[str, Any]:
        """One logical request, retried under ``retry`` when set; the
        response carries ``meta`` with the attempts it took."""
        if self.retry is None:
            return _attach_meta(await self._attempt(encode), 1)
        attempts = 0

        async def attempt() -> Dict[str, Any]:
            nonlocal attempts
            attempts += 1
            try:
                return await self._attempt(encode)
            except ServiceError as exc:
                if exc.code in RETRYABLE_ERRORS:
                    raise _RetryableError(exc) from exc
                raise
            except _CONNECTION_ERRORS as exc:
                raise _RetryableError(exc) from exc

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            self.retries += 1

        try:
            obj = await self.retry.execute_async(
                attempt, retry_on=(_RetryableError,),
                key=key or self._next_key(), on_retry=on_retry)
        except _RetryableError as exc:
            raise exc.inner from exc
        return _attach_meta(obj, attempts)

    def _next_key(self) -> str:
        return f"{self._session}-{next(self._keys)}"

    def _idempotency_key(self, key: Optional[str]) -> Optional[str]:
        """The caller's key, or a fresh one when retries need dedup."""
        if key is None and self.retry is not None:
            key = self._next_key()
        return key

    # ------------------------------------------------------------------ #
    # Request types
    # ------------------------------------------------------------------ #

    async def align(self, read: Read,
                    idempotency_key: Optional[str] = None,
                    budget_ms: Optional[float] = None
                    ) -> Dict[str, Any]:
        """Align one read; the response object (``sam``: one line)."""
        key = self._idempotency_key(idempotency_key)
        return await self._call(
            lambda request_id: encode_align(
                request_id, read, idempotency_key=key,
                budget_ms=budget_ms),
            key)

    async def align_pair(self, mate1: Read, mate2: Read,
                         pair_id: Optional[str] = None,
                         idempotency_key: Optional[str] = None,
                         budget_ms: Optional[float] = None
                         ) -> Dict[str, Any]:
        """Align an FR pair; response carries two SAM lines + pairing."""
        key = self._idempotency_key(idempotency_key)
        return await self._call(
            lambda request_id: encode_align_pair(
                request_id, mate1, mate2, pair_id=pair_id,
                idempotency_key=key, budget_ms=budget_ms),
            key)

    async def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot."""
        obj = await self._call(
            lambda request_id: encode_control(request_id, TYPE_STATS))
        return obj["stats"]

    async def ping(self) -> bool:
        obj = await self._call(
            lambda request_id: encode_control(request_id, TYPE_PING))
        return bool(obj.get("pong"))

    async def close(self) -> None:
        """Drop the connection (a later call would redial)."""
        task, writer = self._reader_task, self._writer
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        try:
            await writer.wait_closed()
        except OSError:
            pass
