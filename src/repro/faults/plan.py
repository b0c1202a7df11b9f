"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a pure description: a seed plus a tuple of
:class:`FaultSpec` entries, each naming a fault *kind* (what goes wrong),
an injection *site* (the boundary where it goes wrong), and a firing rule
(exact call indices, a seeded rate, or both).  A plan never mutates; the
runtime object is the :class:`FaultInjector` it builds, which the shims
at each boundary consult (``injector.check(site)``) once per crossing.

Determinism contract (the chaos harness pins it):

- The decision sequence at every site is a pure function of
  ``(seed, site, spec position)``.  Each rate spec owns a private
  ``random.Random`` stream advanced exactly once per call at its site —
  whether or not it fires — so the schedule at one site can never depend
  on how calls interleave with *other* sites, on thread timing, or on
  which spec fired first.
- ``FaultPlan.preview(site, n)`` replays the first ``n`` decisions
  without side effects; two plans with the same seed preview identically,
  which is the "same seed ⇒ same injected schedule" invariant.

Fault taxonomy (see docs/RESILIENCE.md):

========================  ==========================================
kind                      simulates
========================  ==========================================
``worker_crash``          an engine dying mid-batch
``latency_spike``         a pathological read stalling an engine
``conn_drop``             a connection dropped (optionally after a
                          partial write) mid-response
``shard_kill``            a shard worker process SIGKILLed
``backend_kill``          a cluster backend process SIGKILLed
                          mid-load (the supervisor must restart it)
========================  ==========================================
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Fault kinds.
WORKER_CRASH = "worker_crash"
LATENCY_SPIKE = "latency_spike"
CONN_DROP = "conn_drop"
SHARD_KILL = "shard_kill"
BACKEND_KILL = "backend_kill"

FAULT_KINDS = (WORKER_CRASH, LATENCY_SPIKE, CONN_DROP, SHARD_KILL,
               BACKEND_KILL)

#: Injection sites (boundary names the shims use).
SITE_ENGINE = "engine"            # AlignmentEngine.execute (service worker)
SITE_CONN_WRITE = "conn_write"    # server → client response write
SITE_SHARD = "shard_worker"       # ShardedRunner.align worker process
SITE_CLUSTER = "cluster_backend"  # chaos cluster-phase kill checkpoints

SITES = (SITE_ENGINE, SITE_CONN_WRITE, SITE_SHARD, SITE_CLUSTER)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault type at one site.

    Args:
        kind: one of :data:`FAULT_KINDS`.
        site: one of :data:`SITES`.
        at_calls: 1-based call indices at ``site`` that always fire.
        rate: probability a call fires, drawn from this spec's private
            seeded stream (0 disables; combines with ``at_calls``).
        param: kind-specific knob — latency seconds for
            ``latency_spike``, fraction of the response line written
            before the drop for ``conn_drop``.
        max_fires: cap on total firings (None = unbounded).
    """

    kind: str
    site: str
    at_calls: Tuple[int, ...] = ()
    rate: float = 0.0
    param: float = 0.0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"expected one of {SITES}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if any(c < 1 for c in self.at_calls):
            raise ValueError(f"at_calls are 1-based, got {self.at_calls}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(
                f"max_fires must be >= 0, got {self.max_fires}")


@dataclass(frozen=True)
class FaultEvent:
    """One fault the injector decided to fire."""

    kind: str
    site: str
    call_index: int
    param: float = 0.0


class _SpecState:
    """Runtime state of one spec inside an injector."""

    __slots__ = ("spec", "rng", "fires")

    def __init__(self, spec: FaultSpec, rng: Optional[random.Random]):
        self.spec = spec
        self.rng = rng
        self.fires = 0


class FaultInjector:
    """The runtime half of a plan: call counters, streams, fired log.

    Thread-safe — boundaries cross from executor threads, worker
    coroutines, and process-launching code alike.  One injector is meant
    to span a whole chaos run so its :attr:`fired` log is the run's
    complete injection record.
    """

    def __init__(self, plan: "FaultPlan"):
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._states: Dict[str, List[_SpecState]] = {}
        for index, spec in enumerate(plan.specs):
            rng = (random.Random(f"{plan.seed}:{spec.site}:{index}")
                   if spec.rate > 0 else None)
            self._states.setdefault(spec.site, []).append(
                _SpecState(spec, rng))
        self.fired: List[FaultEvent] = []

    def calls(self, site: str) -> int:
        """How many times ``site`` has been crossed so far."""
        with self._lock:
            return self._calls.get(site, 0)

    def check(self, site: str) -> Optional[FaultEvent]:
        """Record one crossing of ``site``; the fault to apply, if any.

        At most one event is returned per call (the first matching spec
        in plan order), but every rate stream at the site advances every
        call, so later specs' schedules stay independent of earlier
        specs' outcomes.
        """
        with self._lock:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            event: Optional[FaultEvent] = None
            for state in self._states.get(site, ()):
                hit = call in state.spec.at_calls
                if state.rng is not None:
                    draw = state.rng.random()
                    hit = hit or draw < state.spec.rate
                if not hit:
                    continue
                if (state.spec.max_fires is not None
                        and state.fires >= state.spec.max_fires):
                    continue
                state.fires += 1
                if event is None:
                    event = FaultEvent(kind=state.spec.kind, site=site,
                                       call_index=call,
                                       param=state.spec.param)
            if event is not None:
                self.fired.append(event)
            return event

    def fired_counts(self) -> Dict[str, int]:
        """Fired events per fault kind (for reports and assertions)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for event in self.fired:
                counts[event.kind] = counts.get(event.kind, 0) + 1
            return counts

    def fired_schedule(self) -> List[Tuple[str, int, str]]:
        """The injection record as ``(site, call_index, kind)`` tuples."""
        with self._lock:
            return [(e.site, e.call_index, e.kind) for e in self.fired]


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of typed faults (pure data)."""

    seed: int
    specs: Tuple[FaultSpec, ...] = ()
    name: str = "custom"

    def injector(self) -> FaultInjector:
        """A fresh runtime injector for this plan."""
        return FaultInjector(self)

    def preview(self, site: str, calls: int) -> List[Optional[str]]:
        """Decision per call index 1..``calls`` at ``site``, side-effect
        free (a fresh injector is consumed and discarded)."""
        probe = self.injector()
        out: List[Optional[str]] = []
        for _ in range(calls):
            event = probe.check(site)
            out.append(event.kind if event is not None else None)
        return out

    def preview_all(self, calls: int) -> Dict[str, List[Optional[str]]]:
        """:meth:`preview` across every site (schedule fingerprint)."""
        return {site: self.preview(site, calls) for site in SITES}

    def kinds(self) -> Tuple[str, ...]:
        """The distinct fault kinds this plan can inject, in
        taxonomy order."""
        present = {spec.kind for spec in self.specs}
        return tuple(k for k in FAULT_KINDS if k in present)


def _ci_default(seed: int) -> FaultPlan:
    """At least one fault of every class, early enough that even a small
    smoke run crosses each site often enough to fire them all."""
    return FaultPlan(seed=seed, name="ci-default", specs=(
        FaultSpec(WORKER_CRASH, SITE_ENGINE, at_calls=(2,)),
        FaultSpec(LATENCY_SPIKE, SITE_ENGINE, at_calls=(4,), param=0.05),
        FaultSpec(CONN_DROP, SITE_CONN_WRITE, at_calls=(3,), param=0.0),
        FaultSpec(CONN_DROP, SITE_CONN_WRITE, at_calls=(9,), param=0.5),
        FaultSpec(SHARD_KILL, SITE_SHARD, at_calls=(2,)),
        FaultSpec(BACKEND_KILL, SITE_CLUSTER, at_calls=(1,)),
    ))


def _soak(seed: int) -> FaultPlan:
    """Rate-based background faulting for longer runs."""
    return FaultPlan(seed=seed, name="soak", specs=(
        FaultSpec(WORKER_CRASH, SITE_ENGINE, rate=0.05, max_fires=5),
        FaultSpec(LATENCY_SPIKE, SITE_ENGINE, rate=0.10, param=0.02,
                  max_fires=10),
        FaultSpec(CONN_DROP, SITE_CONN_WRITE, rate=0.03, param=0.5,
                  max_fires=8),
        FaultSpec(SHARD_KILL, SITE_SHARD, rate=0.25, max_fires=2),
    ))


def _cluster_restart(seed: int) -> FaultPlan:
    """Restart-aware cluster plan: SIGKILL a backend at the first two
    kill checkpoints of the chaos cluster phase, plus a mid-response
    connection drop — the workload that proves the supervisor's monitor
    loop (restart + live ring reconciliation) carries the tier through
    repeated member death with zero client-visible loss."""
    return FaultPlan(seed=seed, name="cluster-restart", specs=(
        FaultSpec(BACKEND_KILL, SITE_CLUSTER, at_calls=(1, 2)),
        FaultSpec(CONN_DROP, SITE_CONN_WRITE, at_calls=(5,), param=0.5),
    ))


def _none(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, name="none", specs=())


NAMED_PLANS = {
    "ci-default": _ci_default,
    "soak": _soak,
    "cluster-restart": _cluster_restart,
    "none": _none,
}


def named_plan(name: str, seed: int) -> FaultPlan:
    """Look up a named plan; raises ``ValueError`` on unknown names."""
    try:
        builder = NAMED_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; expected one of "
            f"{sorted(NAMED_PLANS)}") from None
    return builder(seed)
