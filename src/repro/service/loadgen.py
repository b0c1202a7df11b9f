"""Closed- and open-loop load generation for the alignment service.

The benchmarking companion of :mod:`repro.service.server`:

- **closed loop** — ``concurrency`` logical clients, each holding at
  most one request outstanding and firing the next the moment a response
  lands. Total in-flight equals ``concurrency``; this measures saturated
  throughput (and is how the acceptance run keeps ≥64 requests in
  flight).
- **open loop** — requests arrive on a fixed schedule (``rate`` per
  second) regardless of completions, the arrival model a public service
  actually faces; latency under an open loop exposes queueing that a
  closed loop hides.

All traffic multiplexes over one :class:`~repro.service.client.
AsyncServiceClient` connection. Every request is accounted for: the
report's ``dropped`` (requests that never got any response) must be zero
on a healthy run, and rejections/timeouts are tallied per error code
rather than hidden.

With :attr:`LoadgenConfig.retry` set, the client runs under that policy:
dropped connections reconnect, ``busy``/``overloaded`` responses back
off and retry, and idempotency keys keep the retries exactly-once — this
is how the chaos harness (``repro chaos``) drives it, asserting that
even under injected faults ``dropped`` stays zero and the SAM output is
byte-identical to a fault-free run.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.faults.retry import RetryPolicy
from repro.genome.pairs import PairedReadSimulator
from repro.genome.reads import Read, ReadSimulator
from repro.genome.reference import ReferenceGenome
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.metrics import percentile
from repro.service.protocol import (
    ERR_BUSY,
    ERR_OVERLOADED,
    ERR_QUEUE_TIMEOUT,
    SHED_ERRORS,
)


@dataclass(frozen=True)
class RequestSpec:
    """One planned request: a single read, or a mate pair."""

    reads: List[Read]

    @property
    def is_pair(self) -> bool:
        return len(self.reads) == 2


def build_workload(reference: ReferenceGenome, count: int,
                   read_length: int = 101, seed: int = 0,
                   pair_fraction: float = 0.0,
                   error_rate: float = 0.001) -> List[RequestSpec]:
    """Deterministic request mix sampled from ``reference``.

    ``pair_fraction`` of the ``count`` requests are paired-end (each
    counting as one request carrying two mates).
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not 0.0 <= pair_fraction <= 1.0:
        raise ValueError(
            f"pair_fraction must be in [0, 1], got {pair_fraction}")
    num_pairs = int(round(count * pair_fraction))
    num_singles = count - num_pairs
    specs: List[RequestSpec] = []
    if num_singles:
        from repro.genome.reads import ErrorModel
        error = ErrorModel(substitution_rate=error_rate,
                           insertion_rate=error_rate / 10,
                           deletion_rate=error_rate / 10)
        simulator = ReadSimulator(reference, read_length=read_length,
                                  error_model=error, seed=seed)
        for read in simulator.simulate(num_singles):
            specs.append(RequestSpec(reads=[read]))
    if num_pairs:
        paired = PairedReadSimulator(reference, read_length=read_length,
                                     seed=seed + 1)
        for pair in paired.simulate(num_pairs):
            specs.append(RequestSpec(reads=[pair.mate1, pair.mate2]))
    # Interleave deterministically so pairs are not all back-loaded.
    if num_pairs and num_singles:
        singles = [s for s in specs if not s.is_pair]
        pairs = [s for s in specs if s.is_pair]
        stride = max(1, len(specs) // len(pairs))
        merged: List[RequestSpec] = []
        si, pi = 0, 0
        for idx in range(len(specs)):
            if pi < len(pairs) and idx % stride == stride - 1:
                merged.append(pairs[pi])
                pi += 1
            elif si < len(singles):
                merged.append(singles[si])
                si += 1
            else:
                merged.append(pairs[pi])
                pi += 1
        specs = merged
    return specs


def workload_from_reads(reads: Sequence[Read]) -> List[RequestSpec]:
    """Single-read specs from an existing read set (e.g. a FASTQ)."""
    return [RequestSpec(reads=[read]) for read in reads]


@dataclass
class LoadgenConfig:
    """Traffic shape knobs."""

    concurrency: int = 64
    mode: str = "closed"          # "closed" or "open"
    rate: float = 200.0           # open-loop arrivals per second
    connect_timeout_s: float = 10.0
    wait_ready_s: float = 0.0     # retry the connect for this long
    retry: Optional[RetryPolicy] = None  # per-request resilience
    budget_ms: Optional[float] = None    # per-request latency budget

    def __post_init__(self) -> None:
        if self.concurrency <= 0:
            raise ValueError(
                f"concurrency must be positive, got {self.concurrency}")
        if self.mode not in ("closed", "open"):
            raise ValueError(
                f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.mode == "open" and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.budget_ms is not None and self.budget_ms <= 0:
            raise ValueError(
                f"budget_ms must be positive, got {self.budget_ms}")


@dataclass
class LoadgenReport:
    """Everything a smoke gate or benchmark needs to assert on."""

    requests: int
    completed: int
    errors: Dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    sam_lines: int = 0
    mapped: int = 0
    server_stats: Optional[Dict[str, Any]] = None
    retried: int = 0              # attempts absorbed by the retry policy
    #: Per-spec response payloads (spec order), populated only when
    #: ``collect_responses=True`` — the chaos harness compares these
    #: byte-for-byte against a fault-free run.
    responses: Optional[List[Optional[Dict[str, Any]]]] = None

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    @property
    def dropped(self) -> int:
        """Requests that never received any response at all."""
        return self.requests - self.completed - self.error_count

    @property
    def shed(self) -> int:
        """Typed load sheds: the server refused work it never ran."""
        return sum(n for code, n in self.errors.items()
                   if code in SHED_ERRORS)

    @property
    def busy_sheds(self) -> int:
        """Breaker/degraded-mode sheds (retryable ``busy``)."""
        return self.errors.get(ERR_BUSY, 0)

    @property
    def queue_timeout_sheds(self) -> int:
        """Deadline sheds: the budget expired in an admission queue."""
        return self.errors.get(ERR_QUEUE_TIMEOUT, 0)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    def latency_quantile(self, q: float) -> float:
        return percentile(self.latencies_s, q)

    @property
    def p99_ms(self) -> float:
        return self.latency_quantile(0.99) * 1000.0

    def format(self) -> str:
        lines = [
            f"requests:    {self.requests} "
            f"(completed {self.completed}, errors {self.error_count}, "
            f"dropped {self.dropped})",
            f"duration:    {self.duration_s:.3f} s "
            f"({self.throughput_rps:,.1f} req/s)",
            f"latency ms:  p50 {self.latency_quantile(0.5) * 1e3:.2f}  "
            f"p95 {self.latency_quantile(0.95) * 1e3:.2f}  "
            f"p99 {self.p99_ms:.2f}  "
            f"max {max(self.latencies_s) * 1e3 if self.latencies_s else 0:.2f}",
            f"sam lines:   {self.sam_lines} ({self.mapped} mapped requests)",
        ]
        if self.retried:
            lines.append(f"retried:     {self.retried} attempts absorbed")
        if self.shed:
            # busy is a breaker shed (retryable); queue_timeout means the
            # request's budget died in an admission queue (retry useless).
            lines.append(
                f"shed:        {self.shed} "
                f"(busy={self.busy_sheds}, "
                f"queue_timeout={self.queue_timeout_sheds}, "
                f"overloaded={self.errors.get(ERR_OVERLOADED, 0)})")
        if self.errors:
            breakdown = ", ".join(f"{code}={n}" for code, n
                                  in sorted(self.errors.items()))
            lines.append(f"errors:      {breakdown}")
        if self.server_stats is not None:
            hist = self.server_stats.get("metrics", {}).get(
                "histograms", {}).get("batch_size")
            if hist:
                lines.append(
                    f"server batch occupancy: mean {hist['mean']:.1f} "
                    f"p50 {hist['p50']:.0f} max {hist['max']:.0f} "
                    f"over {hist['count']} batches")
        return "\n".join(lines)


#: Cadence of connect/readiness probes while waiting for the server.
_CONNECT_PROBE_S = 0.2

_CONNECT_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError)


def _ready_policy(config: LoadgenConfig) -> RetryPolicy:
    """Fixed-cadence probe schedule bounded by ``wait_ready_s``.

    ``wait_ready_s`` is the hard deadline budget: the policy never
    starts a sleep that would overrun it, and ``wait_ready_s == 0``
    degenerates to a single attempt.
    """
    wait = max(config.wait_ready_s, 0.0)
    return RetryPolicy(
        max_attempts=int(wait / _CONNECT_PROBE_S) + 2,
        base_delay_s=_CONNECT_PROBE_S, multiplier=1.0,
        max_delay_s=_CONNECT_PROBE_S, deadline_s=wait, jitter=0.0)


async def _ready_client(endpoint: str,
                        config: LoadgenConfig) -> AsyncServiceClient:
    """The traffic client, once the server answers a ping."""
    client = AsyncServiceClient(endpoint, retry=config.retry,
                                timeout_s=config.connect_timeout_s)
    try:
        await _ready_policy(config).execute_async(
            client.ping, retry_on=_CONNECT_ERRORS, key="loadgen-ready")
    except BaseException:
        await client.close()
        raise
    return client


async def run_loadgen(endpoint: str, specs: Sequence[RequestSpec],
                      config: Optional[LoadgenConfig] = None,
                      collect_server_stats: bool = True,
                      collect_responses: bool = False) -> LoadgenReport:
    """Fire ``specs`` at ``endpoint`` per ``config``; returns the report."""
    config = config or LoadgenConfig()
    client = await _ready_client(endpoint, config)
    report = LoadgenReport(requests=len(specs), completed=0)
    if collect_responses:
        report.responses = [None] * len(specs)

    async def issue(index: int, spec: RequestSpec) -> None:
        started = time.monotonic()
        span = obs.begin("client_request", "loadgen",
                         read_id=spec.reads[0].read_id,
                         pair=spec.is_pair)
        try:
            if spec.is_pair:
                response = await client.align_pair(
                    spec.reads[0], spec.reads[1],
                    budget_ms=config.budget_ms)
            else:
                response = await client.align(
                    spec.reads[0], budget_ms=config.budget_ms)
        except ServiceError as exc:
            report.errors[exc.code] = report.errors.get(exc.code, 0) + 1
            span.end(outcome=exc.code)
            return
        except _CONNECT_ERRORS:
            report.errors["connection"] = \
                report.errors.get("connection", 0) + 1
            span.end(outcome="connection")
            return
        report.latencies_s.append(time.monotonic() - started)
        report.completed += 1
        report.sam_lines += len(response.get("sam", []))
        if response.get("mapped"):
            report.mapped += 1
        if report.responses is not None:
            report.responses[index] = response
        span.end(outcome="ok")

    started = time.monotonic()
    try:
        if config.mode == "closed":
            cursor = itertools.count()

            async def worker() -> None:
                while True:
                    idx = next(cursor)
                    if idx >= len(specs):
                        return
                    await issue(idx, specs[idx])

            workers = min(config.concurrency, len(specs))
            await asyncio.gather(*(worker() for _ in range(workers)))
        else:
            interval = 1.0 / config.rate
            tasks = []
            for idx, spec in enumerate(specs):
                tasks.append(asyncio.ensure_future(issue(idx, spec)))
                await asyncio.sleep(interval)
            await asyncio.gather(*tasks)
        report.duration_s = time.monotonic() - started
        report.retried = client.retries
        if collect_server_stats:
            try:
                report.server_stats = await client.stats()
            except (ServiceError, ConnectionError, OSError):
                pass
    finally:
        await client.close()
    return report


def run(endpoint: str, specs: Sequence[RequestSpec],
        config: Optional[LoadgenConfig] = None,
        collect_server_stats: bool = True,
        collect_responses: bool = False) -> LoadgenReport:
    """Synchronous front door (the CLI calls this)."""
    return asyncio.run(run_loadgen(
        endpoint, specs, config=config,
        collect_server_stats=collect_server_stats,
        collect_responses=collect_responses))
