"""Online alignment service: NvWa's scheduling thesis applied to serving.

The offline stack aligns a read set it can see in full; a service must
hit the same throughput on requests it has not seen yet. This package
carries the paper's scheduling idea (§III: keep the units full by
scheduling diverse ready work, don't chase faster units) into the
request/response world:

- :mod:`repro.service.protocol` — newline-delimited-JSON requests and
  responses over TCP or UNIX sockets (``align``, ``align_pair``,
  ``stats``, ``ping``).
- :mod:`repro.service.batcher` — :class:`~repro.service.batcher.
  DynamicBatcher`: max-batch / max-wait coalescing with greedy queue
  drain, plus bounded, deadline-aware admission control — the one
  admission queue on a request's path, gateway or not
  (:class:`~repro.service.batcher.ServiceOverloadedError` → the
  ``overloaded`` response, :class:`~repro.service.batcher.
  QueueTimeoutShed` → ``queue_timeout`` when ``budget_ms`` runs out).
- :mod:`repro.service.engine` — :class:`~repro.service.engine.
  AlignmentEngine` executes mixed batches through the existing
  ``align.pipeline`` + ``runtime.batch`` vectorized kernels; responses
  are bit-identical to the offline SAM output by construction.
- :mod:`repro.service.server` — the asyncio
  :class:`~repro.service.server.AlignmentServer`: worker pool, per-
  request timeouts, worker crash replay, graceful drain.
- :mod:`repro.service.metrics` — counters, gauges, and latency
  histograms (p50/p95/p99) behind the ``stats`` request and the periodic
  log line.
- :mod:`repro.service.client` / :mod:`repro.service.loadgen` — the
  multiplexing, self-reconnecting client (retrying under an optional
  :class:`~repro.faults.retry.RetryPolicy`) and the closed/open-loop
  benchmark driver
  (``repro serve`` / ``repro loadgen`` in the CLI).
"""

from repro.service.batcher import (
    BatcherStats,
    DynamicBatcher,
    QueueTimeoutShed,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.engine import AlignmentEngine, EngineError
from repro.service.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    RequestSpec,
    build_workload,
    run_loadgen,
    workload_from_reads,
)
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.service.protocol import (
    AlignRequest,
    ProtocolError,
    decode_request,
    decode_response,
    encode_align,
    encode_align_pair,
)
from repro.service.server import AlignmentServer, ServerConfig, run_server

__all__ = [
    "AlignRequest",
    "AlignmentEngine",
    "AlignmentServer",
    "AsyncServiceClient",
    "BatcherStats",
    "Counter",
    "DynamicBatcher",
    "EngineError",
    "Gauge",
    "Histogram",
    "LoadgenConfig",
    "LoadgenReport",
    "MetricsRegistry",
    "ProtocolError",
    "QueueTimeoutShed",
    "RequestSpec",
    "ServerConfig",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "build_workload",
    "decode_request",
    "decode_response",
    "encode_align",
    "encode_align_pair",
    "percentile",
    "run_loadgen",
    "run_server",
    "workload_from_reads",
]
