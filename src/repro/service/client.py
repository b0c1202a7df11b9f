"""Clients for the alignment service.

Three flavours:

- :class:`AsyncServiceClient` — one connection, many in-flight requests.
  A background reader task dispatches response lines to per-request
  futures by id, so a single socket sustains arbitrary concurrency (the
  loadgen drives ≥64 in-flight requests through one of these).
- :class:`ResilientAsyncClient` — an :class:`AsyncServiceClient` under a
  :class:`~repro.faults.retry.RetryPolicy`: it reconnects after drops,
  retries retryable errors (``busy``/``overloaded``) with seeded
  backoff, and stamps every align request with an idempotency key so
  retries are deduplicated server-side (exactly-once results).
- :class:`ServiceClient` — a small blocking wrapper (one request at a
  time) for scripts, examples, and debugging with no asyncio in sight;
  optionally takes the same :class:`RetryPolicy` for reconnect + retry.

All speak the NDJSON protocol of :mod:`repro.service.protocol` and work
over TCP or UNIX-domain sockets.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
import uuid
from typing import Any, Dict, Optional, Tuple

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


class AsyncServiceClient:
    """Multiplexing asyncio client; create via :meth:`connect`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: Optional[str] = None,
                      port: Optional[int] = None,
                      unix_path: Optional[str] = None,
                      timeout_s: float = 10.0) -> "AsyncServiceClient":
        if unix_path is not None:
            opener = asyncio.open_unix_connection(unix_path,
                                                  limit=MAX_LINE_BYTES)
        else:
            if host is None or port is None:
                raise ValueError("need host+port or unix_path")
            opener = asyncio.open_connection(host, port,
                                             limit=MAX_LINE_BYTES)
        reader, writer = await asyncio.wait_for(opener, timeout_s)
        return cls(reader, writer)

    @classmethod
    async def connect_endpoint(cls, endpoint: str,
                               timeout_s: float = 10.0
                               ) -> "AsyncServiceClient":
        host, port, unix_path = parse_endpoint(endpoint)
        return await cls.connect(host=host, port=port, unix_path=unix_path,
                                 timeout_s=timeout_s)

    # ------------------------------------------------------------------ #

    async def _read_loop(self) -> None:
        try:
            while True:
                raw = await self._reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    obj = decode_response(line)
                except ProtocolError:
                    continue
                future = self._pending.pop(str(obj.get("id")), None)
                if future is not None and not future.done():
                    future.set_result(obj)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection"))
            self._pending.clear()

    async def _request(self, line: str,
                       request_id: str) -> Dict[str, Any]:
        future: "asyncio.Future[Dict[str, Any]]" = \
            asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        try:
            # Holding the write lock across drain() is the contract:
            # request lines must hit the socket whole and in submission
            # order.
            async with self._write_lock:  # repro-lint: disable=lock-across-await
                self._writer.write(line.encode("utf-8") + b"\n")
                await self._writer.drain()
            return await future
        except BaseException:
            # Leaving on any path but `await future` (failed write,
            # cancellation) orphans the future: read-loop teardown would
            # later fail it with nobody awaiting, and asyncio logs
            # "exception was never retrieved". Consume it here.
            self._pending.pop(request_id, None)
            if future.done() and not future.cancelled():
                future.exception()
            else:
                future.cancel()
            raise

    def _next_id(self) -> str:
        return str(next(self._ids))

    @staticmethod
    def _unwrap(obj: Dict[str, Any]) -> Dict[str, Any]:
        if not obj.get("ok"):
            raise ServiceError(obj.get("error", "unknown"),
                               obj.get("message", ""))
        return obj

    # ------------------------------------------------------------------ #
    # Request types
    # ------------------------------------------------------------------ #

    async def align(self, read: Read,
                    idempotency_key: Optional[str] = None,
                    budget_ms: Optional[float] = None
                    ) -> Dict[str, Any]:
        """Align one read; the response object (``sam``: one line)."""
        request_id = self._next_id()
        return self._unwrap(await self._request(
            encode_align(request_id, read,
                         idempotency_key=idempotency_key,
                         budget_ms=budget_ms), request_id))

    async def align_pair(self, mate1: Read, mate2: Read,
                         pair_id: Optional[str] = None,
                         idempotency_key: Optional[str] = None,
                         budget_ms: Optional[float] = None
                         ) -> Dict[str, Any]:
        """Align an FR pair; response carries two SAM lines + pairing."""
        request_id = self._next_id()
        return self._unwrap(await self._request(
            encode_align_pair(request_id, mate1, mate2, pair_id=pair_id,
                              idempotency_key=idempotency_key,
                              budget_ms=budget_ms),
            request_id))

    async def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot."""
        request_id = self._next_id()
        obj = self._unwrap(await self._request(
            encode_control(request_id, TYPE_STATS), request_id))
        return obj["stats"]

    async def ping(self) -> bool:
        request_id = self._next_id()
        obj = self._unwrap(await self._request(
            encode_control(request_id, TYPE_PING), request_id))
        return bool(obj.get("pong"))

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


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


class ResilientAsyncClient:
    """An async client that survives connection drops and shed load.

    Wraps :class:`AsyncServiceClient` with a :class:`~repro.faults.
    retry.RetryPolicy`: connection failures tear the client down and
    reconnect; retryable protocol errors (``busy``, ``overloaded``) back
    off with seeded jitter; and every align request carries a generated
    idempotency key — the *same* key across all attempts of one logical
    request — so the server deduplicates retries and the caller sees
    exactly-once results.  Non-retryable errors propagate immediately.

    Safe for concurrent use: reconnection is serialized behind a lock,
    and callers that hit the same dead connection all converge on the
    one replacement.
    """

    def __init__(self, endpoint: str,
                 retry: Optional[RetryPolicy] = None,
                 connect_timeout_s: float = 10.0,
                 client: Optional[AsyncServiceClient] = None,
                 session: Optional[str] = None):
        self._endpoint = endpoint
        self.retry = retry if retry is not None else RetryPolicy()
        self._connect_timeout_s = connect_timeout_s
        self._client = client
        self._lock = asyncio.Lock()
        self._session = session or uuid.uuid4().hex[:12]
        self._keys = itertools.count(1)
        self.retries = 0       # retried attempts (observability)
        self.reconnects = 0    # connections re-established

    # ------------------------------------------------------------------ #

    async def _get(self) -> AsyncServiceClient:
        # Holding the lock across connect() is the contract: concurrent
        # callers hitting a dead connection must converge on the single
        # replacement instead of racing to open their own.
        async with self._lock:  # repro-lint: disable=lock-across-await
            if self._client is None:
                self._client = await AsyncServiceClient.connect_endpoint(
                    self._endpoint, timeout_s=self._connect_timeout_s)
                self.reconnects += 1
            return self._client

    async def _invalidate(self, client: AsyncServiceClient) -> None:
        async with self._lock:
            if self._client is client:
                self._client = None
        try:
            await client.close()
        except (ConnectionError, OSError):
            pass

    def _next_key(self) -> str:
        return f"{self._session}-{next(self._keys)}"

    async def _call(self, method: str, *args: Any,
                    key: str, **kwargs: Any) -> Tuple[Any, int]:
        """Run one logical request; ``(result, attempts_used)``."""
        attempts = [0]

        async def attempt() -> Any:
            attempts[0] += 1
            client = await self._get()
            try:
                return await getattr(client, method)(*args, **kwargs)
            except ServiceError as exc:
                if exc.code in RETRYABLE_ERRORS:
                    raise _RetryableError(exc) from exc
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                await self._invalidate(client)
                raise _RetryableError(exc) from exc

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            self.retries += 1

        try:
            result = await self.retry.execute_async(
                attempt, retry_on=(_RetryableError,), key=key,
                on_retry=on_retry)
        except _RetryableError as exc:
            raise exc.inner from exc
        return result, attempts[0]

    # ------------------------------------------------------------------ #

    async def align(self, read: Read,
                    budget_ms: Optional[float] = None) -> Dict[str, Any]:
        key = self._next_key()
        obj, attempts = await self._call("align", read, key=key,
                                         idempotency_key=key,
                                         budget_ms=budget_ms)
        return _attach_meta(obj, attempts)

    async def align_pair(self, mate1: Read, mate2: Read,
                         pair_id: Optional[str] = None,
                         budget_ms: Optional[float] = None
                         ) -> Dict[str, Any]:
        key = self._next_key()
        obj, attempts = await self._call("align_pair", mate1, mate2,
                                         pair_id=pair_id, key=key,
                                         idempotency_key=key,
                                         budget_ms=budget_ms)
        return _attach_meta(obj, attempts)

    async def ping(self) -> bool:
        result, _ = await self._call("ping", key=self._next_key())
        return bool(result)

    async def stats(self) -> Dict[str, Any]:
        result, _ = await self._call("stats", key=self._next_key())
        return result

    async def close(self) -> None:
        async with self._lock:
            client, self._client = self._client, None
        if client is not None:
            await client.close()


class ServiceClient:
    """Blocking, one-request-at-a-time client over a raw socket.

    With ``retry_policy`` set, connection failures reconnect and retry
    under the policy's backoff/deadline, and align requests carry
    idempotency keys so those retries never double-compute server-side.
    ``busy``/``overloaded`` responses are likewise retried; other
    protocol errors raise immediately.
    """

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None,
                 unix_path: Optional[str] = None,
                 timeout_s: float = 30.0,
                 retry_policy: Optional[RetryPolicy] = None):
        if unix_path is None and (host is None or port is None):
            raise ValueError("need host+port or unix_path")
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._timeout_s = timeout_s
        self._retry = retry_policy
        self._session = uuid.uuid4().hex[:12]
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self._ids = itertools.count(1)
        self._connect()

    def _connect(self) -> None:
        if self._unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout_s)
            sock.connect(self._unix_path)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout_s)
        self._sock = sock
        self._file = sock.makefile("rw", encoding="utf-8", newline="\n")

    def _teardown(self) -> None:
        try:
            self.close()
        except OSError:
            pass
        self._sock = None
        self._file = None

    def _send(self, line: str) -> Dict[str, Any]:
        assert self._file is not None
        self._file.write(line + "\n")
        self._file.flush()
        response = self._file.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        obj = decode_response(response.strip())
        if not obj.get("ok"):
            raise ServiceError(obj.get("error", "unknown"),
                               obj.get("message", ""))
        return obj

    def _request(self, line: str, key: str = "",
                 attach_meta: bool = False) -> Dict[str, Any]:
        attempts = [0]

        def attempt() -> Dict[str, Any]:
            attempts[0] += 1
            if self._file is None:
                self._connect()
            try:
                return self._send(line)
            except ServiceError as exc:
                if exc.code in RETRYABLE_ERRORS:
                    raise _RetryableError(exc) from exc
                raise
            except (ConnectionError, OSError) as exc:
                self._teardown()
                raise _RetryableError(exc) from exc

        try:
            if self._retry is None:
                attempts[0] = 1
                if self._file is None:
                    self._connect()
                obj = self._send(line)
            else:
                obj = self._retry.execute(attempt,
                                          retry_on=(_RetryableError,),
                                          key=key)
        except _RetryableError as exc:
            raise exc.inner from exc
        if attach_meta:
            _attach_meta(obj, attempts[0])
        return obj

    def _next_key(self) -> Optional[str]:
        """Idempotency key for one logical align call (None = no retry,
        no dedup needed)."""
        if self._retry is None:
            return None
        return f"{self._session}-{next(self._ids)}"

    def align(self, read: Read) -> Dict[str, Any]:
        key = self._next_key()
        return self._request(
            encode_align(str(next(self._ids)), read,
                         idempotency_key=key), key=key or "",
            attach_meta=True)

    def align_pair(self, mate1: Read, mate2: Read,
                   pair_id: Optional[str] = None) -> Dict[str, Any]:
        key = self._next_key()
        return self._request(encode_align_pair(
            str(next(self._ids)), mate1, mate2, pair_id=pair_id,
            idempotency_key=key), key=key or "", attach_meta=True)

    def align_raw(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send an arbitrary request object (debugging aid)."""
        payload = dict(payload)
        payload.setdefault("id", str(next(self._ids)))
        return self._request(json.dumps(payload, separators=(",", ":")))

    def stats(self) -> Dict[str, Any]:
        return self._request(
            encode_control(str(next(self._ids)), TYPE_STATS))["stats"]

    def ping(self) -> bool:
        return bool(self._request(
            encode_control(str(next(self._ids)), TYPE_PING)).get("pong"))

    def close(self) -> None:
        file, self._file = self._file, None
        sock, self._sock = self._sock, None
        try:
            if file is not None:
                file.close()
        finally:
            if sock is not None:
                sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
