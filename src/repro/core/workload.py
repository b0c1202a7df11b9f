"""Workload traces consumed by the accelerator simulation.

A workload is the per-read *work* the computing units must perform: how
much index traffic the SU generates for the read (seeding accesses) and the
extension tasks (hits with their scales) the EUs must consume. Two sources:

- :func:`workload_from_pipeline` measures real work by running the software
  aligner (execution-driven simulation, the paper's methodology);
- :func:`synthetic_workload` draws work from a dataset profile's statistics
  (fast path for design-space sweeps, Fig 13).

The per-hit timing scale follows the paper's abstraction: EU latency is a
function of the *hit length* — the extension span the EU must compute. For
pipeline-derived hits that is the read's unmatched residue around the chain
(what seed extension actually fills in), which reproduces the paper's
short-hits-dominate distribution (Fig 9a / Fig 14b).

Hit-length statistics come in two related forms. The *count mass* is the
fraction of hits per interval — what the sampler draws from. The
*PE-demand mass* (count weighted by length) is what Equation 4/5 consumes:
with s_i as PE demand, unit counts x_i ∝ s_i give every class equal
per-unit load under Formula 3, which is exactly why the paper's mix
achieves the 85 % EU utilization of Fig 12(c).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.genome.datasets import DatasetProfile

if TYPE_CHECKING:  # imported lazily to keep repro.core import-light
    from repro.align.pipeline import ReadAlignment


@dataclass(frozen=True)
class HitTask:
    """One extension task: align a ``query_len`` span against ``ref_len``.

    ``query_seq``/``ref_seq`` optionally carry the actual sequences of the
    task (attached by :func:`workload_from_pipeline` with
    ``attach_sequences=True``); with them the accelerator can *execute*
    each extension functionally, not just time it.  The EU runs a
    full-window ``smith_waterman`` over these sequences, whereas the
    software pipeline extends only the flanks of the chain's longest
    seed; making both use one hit-length definition is the ROADMAP item
    "One hit record from read to EU".
    """

    read_idx: int
    hit_idx: int
    query_len: int
    ref_len: int
    query_seq: Optional[str] = None
    ref_seq: Optional[str] = None

    def __post_init__(self) -> None:
        if self.query_len <= 0 or self.ref_len <= 0:
            raise ValueError("hit task lengths must be positive")
        if (self.query_seq is None) != (self.ref_seq is None):
            raise ValueError("attach both sequences or neither")

    @property
    def hit_len(self) -> int:
        """The scheduling statistic (Fig 10 step ❷)."""
        return self.query_len

    @property
    def has_sequences(self) -> bool:
        return self.query_seq is not None


@dataclass(frozen=True)
class ReadTask:
    """One read's worth of accelerator work."""

    read_idx: int
    seeding_accesses: int
    hits: Tuple[HitTask, ...] = ()

    def __post_init__(self) -> None:
        if self.seeding_accesses < 0:
            raise ValueError("seeding_accesses must be >= 0")


@dataclass
class Workload:
    """An ordered stream of read tasks plus summary statistics."""

    tasks: List[ReadTask] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def total_hits(self) -> int:
        return sum(len(t.hits) for t in self.tasks)

    def hit_lengths(self) -> List[int]:
        return [h.hit_len for t in self.tasks for h in t.hits]

    # ------------------------------------------------------------------ #
    # Serialization (reproducible workload exchange)
    # ------------------------------------------------------------------ #

    def save(self, target: Union[str, os.PathLike]) -> None:
        """Write the workload as JSON (sequences included when present)."""
        payload = {"version": 1, "tasks": [
            {"read_idx": t.read_idx,
             "seeding_accesses": t.seeding_accesses,
             "hits": [{"hit_idx": h.hit_idx,
                       "query_len": h.query_len,
                       "ref_len": h.ref_len,
                       **({"query_seq": h.query_seq,
                           "ref_seq": h.ref_seq}
                          if h.has_sequences else {})}
                      for h in t.hits]}
            for t in self.tasks]}
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, source: Union[str, os.PathLike]) -> "Workload":
        """Read a workload written by :meth:`save`."""
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != 1:
            raise ValueError(
                f"unsupported workload version {payload.get('version')!r}")
        tasks = []
        for entry in payload["tasks"]:
            hits = tuple(
                HitTask(read_idx=entry["read_idx"], hit_idx=h["hit_idx"],
                        query_len=h["query_len"], ref_len=h["ref_len"],
                        query_seq=h.get("query_seq"),
                        ref_seq=h.get("ref_seq"))
                for h in entry["hits"])
            tasks.append(ReadTask(read_idx=entry["read_idx"],
                                  seeding_accesses=entry["seeding_accesses"],
                                  hits=hits))
        return cls(tasks)


def hit_extension_span(read_len: int, read_start: int, read_end: int,
                       slack: int = 4) -> int:
    """Extension scale of a chained hit: the unmatched read residue.

    Seed extension fills in the read bases *outside* the exact-match chain
    (plus a little slack for edit errors inside it). A chain covering the
    whole read leaves a short extension task; a fragmented chain leaves a
    long one — reproducing the paper's hit-length diversity.
    """
    if not 0 <= read_start < read_end <= read_len:
        raise ValueError(
            f"invalid chain span [{read_start}, {read_end}) in read of "
            f"length {read_len}")
    residue = read_start + (read_len - read_end)
    return max(1, residue + slack)


def workload_from_pipeline(results: Sequence["ReadAlignment"],
                           ref_pad: int = 8,
                           slack: int = 4,
                           reference_text: Optional[str] = None) -> Workload:
    """Convert software-aligner outputs into an accelerator workload.

    Each hit's query side is its extension span (unmatched read residue);
    the reference side is that span plus the alignment band slack — the
    R ≈ Q geometry of the paper's Fig 8 analysis.

    With ``reference_text`` supplied, every hit task also carries the
    actual (oriented read, reference window) pair of the pipeline's
    extension, enabling functional execution inside the accelerator.
    """
    from repro.genome.sequence import reverse_complement

    tasks = []
    for idx, result in enumerate(results):
        read_len = len(result.read.sequence)
        hits = []
        for hit in result.hits:
            span = hit_extension_span(read_len, hit.read_start, hit.read_end,
                                      slack=slack)
            query_seq = ref_seq = None
            if reference_text is not None:
                query_seq = (reverse_complement(result.read.sequence)
                             if hit.reverse else result.read.sequence)
                ref_seq = reference_text[hit.ref_start:hit.ref_end]
            hits.append(HitTask(read_idx=idx, hit_idx=hit.hit_idx,
                                query_len=span, ref_len=span + ref_pad,
                                query_seq=query_seq, ref_seq=ref_seq))
        tasks.append(ReadTask(read_idx=idx,
                              seeding_accesses=result.work.seeding_accesses,
                              hits=tuple(hits)))
    return Workload(tasks)


def synthetic_workload(profile: DatasetProfile, read_count: int,
                       seed: int = 0,
                       mean_seeding_accesses: int = 450,
                       access_dispersion: float = 0.45,
                       ref_pad: int = 8) -> Workload:
    """Draw a workload from a dataset profile's statistics.

    Per-read seeding accesses follow a lognormal (long-tailed, matching the
    execution-time diversity of Fig 2); hit counts are Poisson-like around
    ``profile.mean_hits_per_read``; hit lengths follow the profile's
    interval mass.
    """
    if read_count <= 0:
        raise ValueError(f"read_count must be positive, got {read_count}")
    if mean_seeding_accesses <= 0:
        raise ValueError("mean_seeding_accesses must be positive")
    rng = random.Random(seed)
    sigma = access_dispersion
    mu = math.log(mean_seeding_accesses) - sigma * sigma / 2

    lengths = profile.sample_hit_lengths(
        count=max(1, int(read_count * (profile.mean_hits_per_read + 3))),
        seed=seed + 1)
    cursor = 0
    tasks = []
    for idx in range(read_count):
        accesses = max(10, int(rng.lognormvariate(mu, sigma)))
        hit_count = _poisson(profile.mean_hits_per_read, rng)
        hits = []
        for h in range(hit_count):
            if cursor >= len(lengths):
                cursor = 0
            span = lengths[cursor]
            cursor += 1
            hits.append(HitTask(read_idx=idx, hit_idx=h, query_len=span,
                                ref_len=span + ref_pad))
        tasks.append(ReadTask(read_idx=idx, seeding_accesses=accesses,
                              hits=tuple(hits)))
    return Workload(tasks)


def _poisson(mean: float, rng: random.Random) -> int:
    """Knuth's Poisson sampler, floored at 1 (every read yields a hit)."""
    threshold = math.exp(-mean)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            break
        k += 1
    return max(1, k)
