"""Cluster topology: shards × replicas, and reference sharding.

A cluster is ``shards × replicas`` backends.  Shard ``s`` owns a fixed
subset of the reference's chromosomes (``shard_reference``), and every
replica of shard ``s`` serves an identical index over that subset:

- **replicated** (``shards == 1``): every backend holds the whole
  reference; the gateway consistent-hashes each request's read id onto
  one replica and the others are failover targets, in the ring's
  preference order.  Responses are bit-identical to a single server by
  construction.
- **sharded** (``shards > 1``): the gateway has no FM-index of its own,
  so it cannot know which shard a read's seeds land in; align requests
  scatter to every shard group and the gathered candidates merge under
  the deterministic rule in :mod:`repro.cluster.merge`.

Chromosome → shard assignment is a deterministic greedy bin-pack by
length (largest chromosome first onto the lightest shard, ties by shard
index), so every process that splits the same reference the same way —
the supervisor building shard index stores, a test rebuilding them,
the gateway reasoning about SAM headers — agrees on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.genome.reference import ReferenceGenome


@dataclass(frozen=True)
class BackendSpec:
    """One backend's identity and placement.

    ``backend_id`` is the stable name used on hash rings, in metrics,
    and in the supervisor's state file; ``endpoint`` is filled in once
    the backend process has bound (``host:port`` or ``unix:/path``).
    """

    backend_id: str
    shard: int
    replica: int
    endpoint: str = ""

    def with_endpoint(self, endpoint: str) -> "BackendSpec":
        return BackendSpec(backend_id=self.backend_id, shard=self.shard,
                           replica=self.replica, endpoint=endpoint)


@dataclass(frozen=True)
class ClusterTopology:
    """The static shape of a cluster: shard count × replica count."""

    shards: int = 1
    replicas: int = 1
    backends: Tuple[BackendSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 1:
            raise ValueError(
                f"replicas must be >= 1, got {self.replicas}")
        if not self.backends:
            specs = tuple(
                BackendSpec(backend_id=f"s{shard}r{replica}",
                            shard=shard, replica=replica)
                for shard in range(self.shards)
                for replica in range(self.replicas))
            object.__setattr__(self, "backends", specs)
        if len(self.backends) != self.shards * self.replicas:
            raise ValueError(
                f"{len(self.backends)} backends for "
                f"{self.shards}x{self.replicas} topology")

    @property
    def sharded(self) -> bool:
        """Does routing need scatter/gather?"""
        return self.shards > 1

    def shard_group(self, shard: int) -> List[BackendSpec]:
        """The replica group serving ``shard``."""
        if not 0 <= shard < self.shards:
            raise IndexError(f"shard {shard} outside 0..{self.shards - 1}")
        return [spec for spec in self.backends if spec.shard == shard]

    def backend(self, backend_id: str) -> BackendSpec:
        for spec in self.backends:
            if spec.backend_id == backend_id:
                return spec
        raise KeyError(f"no backend {backend_id!r}")

    def with_endpoints(self, endpoints: Dict[str, str]
                       ) -> "ClusterTopology":
        """A copy with each backend's bound endpoint filled in."""
        specs = tuple(
            spec.with_endpoint(endpoints.get(spec.backend_id,
                                             spec.endpoint))
            for spec in self.backends)
        return ClusterTopology(shards=self.shards, replicas=self.replicas,
                               backends=specs)

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary for state files and ``stats`` payloads."""
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "backends": [
                {"id": spec.backend_id, "shard": spec.shard,
                 "replica": spec.replica, "endpoint": spec.endpoint}
                for spec in self.backends
            ],
        }


def shard_assignment(reference: ReferenceGenome,
                     shards: int) -> List[List[str]]:
    """Chromosome names per shard (greedy longest-first bin-pack).

    Deterministic for a given reference + shard count; every shard gets
    at least one chromosome, so ``shards`` must not exceed the
    chromosome count.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    chroms = reference.chromosomes
    if shards > len(chroms):
        raise ValueError(
            f"cannot split {len(chroms)} chromosomes into {shards} "
            f"shards (at most one shard per chromosome)")
    # Longest first; ties broken by original order for determinism.
    order = sorted(range(len(chroms)),
                   key=lambda i: (-len(chroms[i]), i))
    loads = [0] * shards
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for index in order:
        target = min(range(shards), key=lambda s: (loads[s], s))
        buckets[target].append(index)
        loads[target] += len(chroms[index])
    # Within a shard, keep reference order so coordinates read naturally.
    return [[chroms[i].name for i in sorted(bucket)]
            for bucket in buckets]


def shard_reference(reference: ReferenceGenome, shards: int,
                    shard: int) -> ReferenceGenome:
    """The sub-reference shard ``shard`` serves (its chromosome subset).

    Chromosome names and per-chromosome coordinates are preserved, so a
    SAM record emitted against a shard reference is textually identical
    to one emitted against the full reference for the same alignment.
    """
    names = shard_assignment(reference, shards)[shard]
    chroms = [reference.chromosome(name) for name in names]
    return ReferenceGenome(chroms)


def shard_for_chromosome(reference: ReferenceGenome, shards: int,
                         name: str) -> int:
    """Which shard owns chromosome ``name``."""
    for shard, names in enumerate(shard_assignment(reference, shards)):
        if name in names:
            return shard
    raise KeyError(f"no chromosome named {name!r}")
