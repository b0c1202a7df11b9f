"""repro.cluster: a sharded-index gateway tier over alignment servers.

A single ``repro serve`` process is the throughput ceiling of the
serving stack; this package scales it out the same way NvWa's scheduler
scales out its units — by putting a scheduler in front of a pool and
keeping every member busy.  The pieces:

- :mod:`~repro.cluster.ring` — consistent hashing, fixed at
  construction (stable routing; skipping an unroutable member remaps
  only its keys);
- :mod:`~repro.cluster.topology` — shards × replicas, deterministic
  chromosome → shard assignment;
- :mod:`~repro.cluster.merge` — deterministic scatter/gather merge of
  per-shard align responses;
- :mod:`~repro.cluster.gateway` — the NDJSON front door: routing,
  failover, one circuit breaker per backend as its only routability
  signal (fed by requests and health pings), latency budgets forwarded
  to the backends' admission queues, idempotency dedup, live
  reconciliation of restarted replicas;
- :mod:`~repro.cluster.supervisor` — backend fleet as real processes
  (spawn on ephemeral ports, atomic state file, SIGTERM drain, SIGKILL
  for chaos, and a self-healing monitor loop: restart with exponential
  backoff, crash-loop detection, permanent eject).

See docs/CLUSTER.md for topology, routing, and failure semantics.
"""

from repro.cluster.gateway import BackendHandle, ClusterGateway, GatewayConfig
from repro.cluster.merge import MergeError, merge_align_payloads
from repro.cluster.ring import DEFAULT_VNODES, HashRing, stable_hash
from repro.cluster.supervisor import (
    BackendProcess,
    ClusterSupervisor,
    RestartPolicy,
    SupervisorError,
    SupervisorEvent,
    read_state,
)
from repro.cluster.topology import (
    BackendSpec,
    ClusterTopology,
    shard_assignment,
    shard_for_chromosome,
    shard_reference,
)

__all__ = [
    "BackendHandle",
    "BackendProcess",
    "BackendSpec",
    "ClusterGateway",
    "ClusterSupervisor",
    "ClusterTopology",
    "DEFAULT_VNODES",
    "GatewayConfig",
    "HashRing",
    "MergeError",
    "RestartPolicy",
    "SupervisorError",
    "SupervisorEvent",
    "merge_align_payloads",
    "read_state",
    "shard_assignment",
    "shard_for_chromosome",
    "shard_reference",
    "stable_hash",
]
