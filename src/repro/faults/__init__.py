"""Deterministic fault injection and resilience (``repro.faults``).

NvWa's argument is that throughput must survive adversarial per-read
variance; a production serving stack additionally has to survive
adversarial *infrastructure* — workers die, connections drop mid-write,
index files get torn, shard processes are OOM-killed.  This package is
the resilience substrate the service and runtime layers share:

- :mod:`repro.faults.plan` — seeded :class:`FaultPlan`/:class:`
  FaultInjector`: a deterministic schedule of typed faults (worker
  crash, engine latency spike, connection drop/partial write,
  shard-worker death, cluster-backend death) consulted by shims at each
  boundary.
  Same seed ⇒ same schedule, always.
- :mod:`repro.faults.retry` — :class:`RetryPolicy`: exponential backoff
  with deterministic jitter and a hard deadline budget, used by the
  sync/async service clients and the loadgen connect path.
- :mod:`repro.faults.breaker` — :class:`CircuitBreaker`: the server's
  degraded mode; when worker crash rate trips it, new work is shed with
  ``busy`` instead of queueing onto a dying engine pool.
- :mod:`repro.faults.injectors` — the shims (:class:`FaultyEngine`,
  :class:`FlakyEngine`, :func:`corrupt_file`) and the
  :class:`IdempotencyCache` that makes client retries exactly-once.
- :mod:`repro.faults.chaos` — the harness behind ``repro chaos``: runs
  serve + loadgen + the sharded runtime under a named plan and asserts
  the invariants (zero lost/duplicated responses, byte-identical SAM,
  reproducible schedule, bit-identical sharded SAM).  Imported
  lazily — it pulls in the service and runtime layers.

See docs/RESILIENCE.md for the taxonomy and semantics.
"""

from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.faults.injectors import (
    FaultyEngine,
    FlakyEngine,
    IdempotencyCache,
    InjectedFault,
    corrupt_file,
)
from repro.faults.plan import (
    CONN_DROP,
    FAULT_KINDS,
    LATENCY_SPIKE,
    NAMED_PLANS,
    SHARD_KILL,
    SITE_CONN_WRITE,
    SITE_ENGINE,
    SITE_SHARD,
    SITES,
    WORKER_CRASH,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    named_plan,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "CLOSED",
    "CONN_DROP",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultyEngine",
    "FlakyEngine",
    "HALF_OPEN",
    "IdempotencyCache",
    "InjectedFault",
    "LATENCY_SPIKE",
    "NAMED_PLANS",
    "OPEN",
    "RetryPolicy",
    "SHARD_KILL",
    "SITES",
    "SITE_CONN_WRITE",
    "SITE_ENGINE",
    "SITE_SHARD",
    "WORKER_CRASH",
    "corrupt_file",
    "named_plan",
]
