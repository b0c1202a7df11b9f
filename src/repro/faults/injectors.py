"""Injector shims and recovery primitives at each fault boundary.

The shims here are deliberately thin: each one consults a
:class:`~repro.faults.plan.FaultInjector` at exactly one site and
applies the returned fault, so *what* goes wrong stays in the plan and
*where* stays here.

- :class:`FaultyEngine` wraps any engine object at :data:`~repro.faults.
  plan.SITE_ENGINE` (worker crashes + latency spikes).
- :class:`FlakyEngine` is the call-scheduled chaos engine that used to
  live inside :mod:`repro.service.engine`; relocated and generalized
  (any exception factory, not just ``RuntimeError``).
- :func:`corrupt_file` is the torn-write primitive (the chaos harness
  truncates an index store with it).
- :class:`IdempotencyCache` is the server-side dedup table that makes
  client retries safe: a retried request carrying the same idempotency
  key is answered from the completed-payload cache instead of being
  recomputed (and possibly double-applied).

Connection-drop and shard-kill shims live inline at their boundaries
(the server's write hook ``AlignmentServer._drop_connection`` and
:func:`repro.runtime.sharded.run_resilient`) because they need transport
and process handles this module should not own.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.faults.plan import (
    LATENCY_SPIKE,
    SITE_ENGINE,
    WORKER_CRASH,
    FaultEvent,
    FaultInjector,
)


class InjectedFault(RuntimeError):
    """An injected failure (carries the event that caused it)."""

    def __init__(self, event: FaultEvent):
        super().__init__(
            f"injected {event.kind} at {event.site} call "
            f"{event.call_index}")
        self.event = event


class FaultyEngine:
    """Plan-driven engine wrapper: crashes and latency spikes.

    Wraps any object with an ``execute(requests)`` method.  Each call
    crosses :data:`SITE_ENGINE` once; a ``worker_crash`` event raises
    :class:`InjectedFault` *before* touching the inner engine (the
    server's replay path must rebuild and re-execute), a
    ``latency_spike`` sleeps ``event.param`` seconds first and then
    executes normally.
    """

    def __init__(self, inner: Any, injector: FaultInjector,
                 site: str = SITE_ENGINE,
                 sleep: Callable[[float], None] = time.sleep):
        self.inner = inner
        self.injector = injector
        self.site = site
        self._sleep = sleep

    def execute(self, requests: Sequence[Any]) -> List[Any]:
        event = self.injector.check(self.site)
        if event is not None:
            if event.kind == WORKER_CRASH:
                raise InjectedFault(event)
            if event.kind == LATENCY_SPIKE and event.param > 0:
                self._sleep(event.param)
        return self.inner.execute(requests)


class FlakyEngine:
    """Call-scheduled chaos engine (relocated from ``repro.service.
    engine``): crashes on exact ``execute`` call numbers.

    Wraps a real engine and raises on call numbers listed in
    ``crash_on_calls`` (1-based), simulating a worker dying mid-batch.
    Used by the crash-recovery tests and fault-injection benchmarks; the
    server must replay the batch on a fresh engine without dropping any
    accepted request.  ``exc_factory`` customizes the raised error (e.g.
    ``OSError`` to mimic an infrastructure failure).
    """

    def __init__(self, inner: Any, crash_on_calls: Sequence[int] = (1,),
                 exc_factory: Optional[Callable[[int], Exception]] = None):
        self.inner = inner
        self.crash_on_calls = set(crash_on_calls)
        self.calls = 0
        self._exc_factory = exc_factory or (lambda call: RuntimeError(
            f"injected worker crash on call {call}"))

    def execute(self, requests: Sequence[Any]) -> List[Any]:
        self.calls += 1
        if self.calls in self.crash_on_calls:
            raise self._exc_factory(self.calls)
        return self.inner.execute(requests)


def corrupt_file(path: str, keep_fraction: float = 0.0) -> int:
    """Truncate ``path`` to ``keep_fraction`` of its bytes (a torn
    write); returns the bytes kept.  ``0.0`` empties the file."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(
            f"keep_fraction must be in [0, 1), got {keep_fraction}")
    size = os.path.getsize(path)
    keep = int(size * keep_fraction)
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep


class IdempotencyCache:
    """Bounded LRU of completed response payloads, keyed by client-chosen
    idempotency keys.

    The server records each successful align payload under its request's
    key; a retried request (same key, new request id — the client lost
    the response to a connection drop, not the computation) is answered
    from here, so retries can never double-compute or double-apply.
    Self-locking for symmetry with the metrics instruments, although the
    server only touches it from the event loop.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
            return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None
