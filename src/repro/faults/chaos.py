"""The chaos harness behind ``repro chaos``.

One :func:`run_chaos` call is a complete resilience acceptance run: it
builds a deterministic workload, executes a fault-free baseline, then
replays the identical workload with a named seeded :class:`~repro.
faults.plan.FaultPlan` armed across every boundary — the service's
engine and connection writes and the sharded runtime's worker
processes — and asserts the invariants that make fault injection worth
having:

1. **Reproducible schedule** — two plans built from the same
   ``(name, seed)`` preview byte-identical decision sequences at every
   site.
2. **Zero lost or duplicated responses** — every request the loadgen
   issued gets exactly one response despite injected connection drops
   and worker crashes (retries are idempotency-key-deduplicated
   server-side).
3. **Byte-identical SAM** — the payloads of the chaos run equal the
   fault-free baseline's, request by request.
4. **Bit-identical sharded results** — a sharded alignment that lost a
   worker to an injected SIGKILL merges to exactly the undisturbed
   run's output.
5. **Index-store self-healing** — a torn on-disk FM-index store is
   detected by its checksummed header, rebuilt, and the recovered index
   produces byte-identical SAM (a corrupted index can never silently
   misalign reads).
6. **Coverage** — every fault kind the plan declares actually fired.

With ``cluster_backends > 0`` the run additionally drives a replicated
``repro.cluster`` gateway over real backend processes and gates three
more invariants: **backend_kill_zero_loss** (plan-scheduled mid-load
SIGKILLs lose nothing and the SAM stays byte-identical),
**backend_restart_zero_loss** (the supervisor's monitor loop restarts
every victim and the gateway's live reconciliation readmits it, breaker
closed — no manual readmission anywhere in the harness), and
**overload_graceful_degradation** (an open-loop burst, through a
gateway, far above the capacity of a one-slot backend produces only
successes and typed sheds, a backend queue depth within its bound, and
in-budget p99 for admitted requests).

Everything is seeded; the same invocation is the same run.  The CI
``chaos-smoke`` job gates on :attr:`ChaosReport.passed`.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.faults.breaker import CLOSED
from repro.faults.plan import (
    BACKEND_KILL,
    SHARD_KILL,
    SITE_CLUSTER,
    FaultInjector,
    FaultPlan,
    named_plan,
)
from repro.faults.retry import RetryPolicy

#: Service shape for harness runs: batches small enough that even a
#: couple dozen requests cross the engine site several times (so the
#: ci-default plan's exact call indices all fire).
_HARNESS_MAX_BATCH = 8
_HARNESS_WORKERS = 2
#: Shards small enough that a short read set spans several workers.
_HARNESS_SHARD_SIZE = 8
#: Decision horizon for the schedule-determinism fingerprint.
_PREVIEW_CALLS = 64


@dataclass(frozen=True)
class Invariant:
    """One checked resilience property."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything ``repro chaos`` prints and CI gates on."""

    plan: str
    seed: int
    requests: int
    fired: Dict[str, int] = field(default_factory=dict)
    invariants: List[Invariant] = field(default_factory=list)
    baseline: Dict[str, Any] = field(default_factory=dict)
    chaos: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def format(self) -> str:
        lines = [
            f"chaos run: plan={self.plan} seed={self.seed} "
            f"requests={self.requests}",
            "faults injected: " + (", ".join(
                f"{kind}={count}" for kind, count
                in sorted(self.fired.items())) or "none"),
            f"baseline: {self._summary(self.baseline)}",
            f"chaos:    {self._summary(self.chaos)}",
        ]
        for inv in self.invariants:
            mark = "ok " if inv.ok else "FAIL"
            line = f"  [{mark}] {inv.name}"
            if inv.detail:
                line += f" — {inv.detail}"
            lines.append(line)
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)

    @staticmethod
    def _summary(run: Dict[str, Any]) -> str:
        if not run:
            return "(not run)"
        return (f"completed {run.get('completed', 0)}/"
                f"{run.get('requests', 0)}, "
                f"errors {run.get('errors', 0)}, "
                f"dropped {run.get('dropped', 0)}, "
                f"retried {run.get('retried', 0)}")


def _run_summary(report: Any) -> Dict[str, Any]:
    return {
        "requests": report.requests,
        "completed": report.completed,
        "errors": report.error_count,
        "dropped": report.dropped,
        "retried": report.retried,
    }


# --------------------------------------------------------------------- #
# Phases
# --------------------------------------------------------------------- #

async def _service_phase(reference: Any, specs: Any, seed: int,
                         injector: Optional[FaultInjector]
                         ) -> Tuple[Any, Dict[str, Any]]:
    """serve + loadgen once; the report and the server's final stats."""
    from repro.service.loadgen import LoadgenConfig, run_loadgen
    from repro.service.server import AlignmentServer, ServerConfig

    config = ServerConfig(host="127.0.0.1", port=0,
                          max_batch=_HARNESS_MAX_BATCH,
                          workers=_HARNESS_WORKERS,
                          max_wait_ms=2.0, stats_interval_s=0)
    server = AlignmentServer(reference, config=config,
                             fault_injector=injector)
    await server.start()
    try:
        retry = RetryPolicy(max_attempts=6, base_delay_s=0.02,
                            multiplier=2.0, max_delay_s=0.2,
                            jitter=0.5, seed=seed)
        lg_config = LoadgenConfig(concurrency=_HARNESS_MAX_BATCH,
                                  wait_ready_s=5.0, retry=retry)
        report = await run_loadgen(server.endpoint, specs,
                                   config=lg_config,
                                   collect_server_stats=False,
                                   collect_responses=True)
        stats = server.stats_payload()
    finally:
        await server.shutdown(drain=True)
    return report, stats


def _sharded_phase(reference: Any, reads: Any,
                   injector: Optional[FaultInjector],
                   parallelism: int) -> List[str]:
    """Sharded alignment; the merged output as SAM lines."""
    from repro.align.sam import sam_record
    from repro.runtime.sharded import ShardedRunner

    runner = ShardedRunner(parallelism=parallelism,
                           shard_size=_HARNESS_SHARD_SIZE,
                           fault_injector=injector)
    results = runner.align(reference, reads)
    return [sam_record(result, reference) for result in results]


#: How long the cluster phase waits for the supervisor to restart and
#: the gateway to readmit every killed backend (generous for CI).
_RECOVERY_TIMEOUT_S = 45.0

#: Overload sub-phase shape: a burst far above the capacity of a
#: one-slot backend (one worker, one request per batch), through a tiny
#: admission queue, under a real budget. The arrival rate is this many
#: times the backend's measured serving rate (1 / one warm request's
#: latency), so the burst overloads it however fast the aligner is.
_OVERLOAD_FACTOR = 20.0
_OVERLOAD_QUEUE_DEPTH = 4
_OVERLOAD_BUDGET_MS = 2000.0


async def _await_cluster_recovery(gateway: Any, supervisor: Any,
                                  kills: List[Tuple[str, int]],
                                  timeout_s: float
                                  ) -> Tuple[bool, str]:
    """Block until every killed backend is restarted AND readmitted:
    alive, and in the gateway on its new endpoint, not retired, with
    its breaker closed.

    The harness never touches the gateway or the supervisor here — it
    only *observes*; recovery must be entirely supervisor-monitor +
    gateway-reconciliation driven (the "no manual readmit" half of the
    invariant).
    """
    expected: Dict[str, int] = {}
    for victim, _ in kills:
        expected[victim] = expected.get(victim, 0) + 1

    def recovered() -> bool:
        for victim, count in expected.items():
            backend = supervisor.backend(victim)
            if backend.restarts < count or not backend.alive:
                return False
            handle = gateway.handles[victim]
            if (handle.endpoint != backend.endpoint or handle.retired
                    or handle.breaker.state != CLOSED):
                return False
        return True

    deadline = asyncio.get_running_loop().time() + timeout_s
    while not recovered():
        if asyncio.get_running_loop().time() >= deadline:
            state = {victim: {
                "restarts": supervisor.backend(victim).restarts,
                "alive": supervisor.backend(victim).alive,
                "breaker": gateway.handles[victim].breaker.state,
            } for victim in expected}
            return False, f"recovery timed out after {timeout_s}s: {state}"
        await asyncio.sleep(0.05)
    return True, ""


async def _cluster_run(topology: Any, supervisor: Any, specs: Any,
                       seed: int, requests: int,
                       injector: Optional[FaultInjector]
                       ) -> Dict[str, Any]:
    """Gateway + loadgen with plan-scheduled mid-load SIGKILLs.

    Kill schedule: the phase crosses the ``cluster_backend`` fault site
    at each response-count checkpoint (1/3 and 2/3 of the load); a
    ``backend_kill`` event SIGKILLs the next backend round-robin — so
    *which* checkpoints kill is plan data, deterministic per seed, not
    harness hardcode.  The supervisor's monitor loop (armed with the
    gateway's reconciliation listener) must then bring every victim
    back without any harness intervention.
    """
    from repro.cluster.gateway import ClusterGateway, GatewayConfig
    from repro.service.loadgen import LoadgenConfig, run_loadgen

    result: Dict[str, Any] = {}
    config = GatewayConfig(host="127.0.0.1", port=0,
                           health_interval_s=0.2,
                           breaker_cooldown_s=0.5)
    gateway = ClusterGateway(topology, config=config)
    await gateway.start()
    kills: List[Tuple[str, int]] = []
    try:
        supervisor.start_monitor(interval_s=0.05,
                                 on_event=gateway.supervisor_listener())
        retry = RetryPolicy(max_attempts=6, base_delay_s=0.02,
                            multiplier=2.0, max_delay_s=0.2,
                            jitter=0.5, seed=seed)
        lg_config = LoadgenConfig(concurrency=_HARNESS_MAX_BATCH,
                                  wait_ready_s=5.0, retry=retry)
        lg_task = asyncio.ensure_future(run_loadgen(
            gateway.endpoint, specs, config=lg_config,
            collect_server_stats=False, collect_responses=True))
        responses = gateway.metrics.counter("responses_total")
        backend_ids = [spec.backend_id for spec in topology.backends]
        checkpoints = sorted({max(1, requests // 3),
                              max(1, (2 * requests) // 3)})
        for target in checkpoints:
            while responses.value < target and not lg_task.done():
                await asyncio.sleep(0.005)
            if lg_task.done():
                break
            event = (injector.check(SITE_CLUSTER)
                     if injector is not None else None)
            if event is None or event.kind != BACKEND_KILL:
                continue
            victim = backend_ids[len(kills) % len(backend_ids)]
            alive = [b for b in supervisor.backends if b.alive]
            if len(alive) < 2:
                continue  # never kill the last standing replica
            killed_at = responses.value
            supervisor.kill(victim)
            kills.append((victim, killed_at))
            obs.instant("backend_sigkill", "chaos", backend=victim,
                        responses_at_kill=killed_at)
        report = await lg_task
        recovery_ok, recovery_detail = (True, "")
        if kills:
            recovery_ok, recovery_detail = await _await_cluster_recovery(
                gateway, supervisor, kills, _RECOVERY_TIMEOUT_S)
        result["report"] = report
        result["stats"] = gateway.metrics.snapshot()
        result["kills"] = kills
        result["recovery_ok"] = recovery_ok
        result["recovery_detail"] = recovery_detail
        result["supervisor"] = {
            b.backend_id: {"restarts": b.restarts, "alive": b.alive,
                           "ejected": b.ejected}
            for b in supervisor.backends}
    finally:
        supervisor.stop_monitor()
        await gateway.shutdown()
    return result


async def _overload_run(topology: Any, specs: Any) -> Dict[str, Any]:
    """An open-loop burst far above capacity, through a gateway, against
    one backend whose batcher is the only admission queue on the path.

    The backend is warmed with one request first (engine and index
    built) and a second one is timed; the burst arrives at
    ``_OVERLOAD_FACTOR`` times the rate that latency allows, with a real
    per-request budget and NO client retries: every outcome must be a
    success or a typed shed.  Its queue gauges are read from its own
    ``stats`` afterwards.
    """
    from repro.cluster.gateway import ClusterGateway, GatewayConfig
    from repro.service.client import AsyncServiceClient
    from repro.service.loadgen import LoadgenConfig, run_loadgen

    backend = AsyncServiceClient(topology.backends[0].endpoint)
    gateway = ClusterGateway(topology, config=GatewayConfig(
        host="127.0.0.1", port=0, health_interval_s=0.2))
    try:
        await backend.align(specs[0].reads[0])
        began = time.perf_counter()
        await backend.align(specs[0].reads[0])
        rate = _OVERLOAD_FACTOR / (time.perf_counter() - began)
        await gateway.start()
        overload_lg = LoadgenConfig(concurrency=_HARNESS_MAX_BATCH,
                                    mode="open", rate=rate,
                                    wait_ready_s=5.0,
                                    budget_ms=_OVERLOAD_BUDGET_MS)
        overload_report = await run_loadgen(
            gateway.endpoint, specs, config=overload_lg,
            collect_server_stats=False)
        stats = await backend.stats()
    finally:
        await gateway.shutdown()
        await backend.close()
    return {"overload_report": overload_report,
            "overload_stats": stats.get("metrics", {}),
            "overload_rate": rate,
            "overload_queue_depth": _OVERLOAD_QUEUE_DEPTH,
            "overload_budget_ms": _OVERLOAD_BUDGET_MS}


def _cluster_phase(reference: Any, specs: Any, seed: int, requests: int,
                   backends: int,
                   injector: Optional[FaultInjector]) -> Dict[str, Any]:
    """Replicated cluster (real backend processes) under chaos.

    Replicated mode is the right shape for this invariant: every
    backend holds the full index, so the survivors' answers are
    bit-identical to the single-server baseline by construction and the
    only question — the one being asked — is whether the *tier* loses
    or duplicates responses when members die without warning, and
    whether it degrades to typed sheds instead of chaos when offered
    more load than it can carry.
    """
    import os

    from repro.cluster.supervisor import ClusterSupervisor, RestartPolicy
    from repro.genome.io import write_fasta

    with tempfile.TemporaryDirectory(prefix="repro-chaos-cluster-") as tmp:
        ref_path = os.path.join(tmp, "ref.fa")
        write_fasta(reference, ref_path)
        supervisor = ClusterSupervisor(
            reference_path=ref_path, workdir=tmp, shards=1,
            replicas=backends, workers=_HARNESS_WORKERS,
            max_batch=_HARNESS_MAX_BATCH,
            restart_policy=RestartPolicy(backoff_base_s=0.1,
                                         backoff_max_s=1.0))
        try:
            topology = supervisor.start()
            result = asyncio.run(_cluster_run(topology, supervisor, specs,
                                              seed, requests, injector))
        finally:
            supervisor.stop(graceful=True)
        # The overload burst gets a one-slot backend process of its own
        # (one worker, one request per batch, a tiny queue): in the
        # harness's process its worker would hold the GIL and slow the
        # burst to the backend's own pace.
        one_slot = ClusterSupervisor(
            reference_path=ref_path, workdir=os.path.join(tmp, "overload"),
            shards=1, replicas=1, workers=1, max_batch=1,
            queue_depth=_OVERLOAD_QUEUE_DEPTH)
        try:
            result.update(asyncio.run(_overload_run(one_slot.start(),
                                                    specs)))
        finally:
            one_slot.stop(graceful=True)
    return result


def _index_phase(reference: Any, reads: Any) -> Tuple[bool, str]:
    """Tear the on-disk index store; recovery must be bit-identical."""
    import os

    from repro.align.pipeline import SoftwareAligner
    from repro.align.sam import sam_record
    from repro.faults.injectors import corrupt_file
    from repro.seeding.store import (
        IndexStoreError,
        attach_or_build,
        build_index_store,
    )

    def render(index: Any) -> List[str]:
        aligner = SoftwareAligner(reference, index=index)
        return [sam_record(r, reference) for r in aligner.align_all(reads)]

    with tempfile.TemporaryDirectory(prefix="repro-chaos-index-") as tmp:
        path = os.path.join(tmp, "chaos.idx")
        store = build_index_store(reference, path)
        expected_hash = store.content_hash
        baseline = render(store.fmindex())
        corrupt_file(path, keep_fraction=0.5)  # torn write
        rebuilt, mmap_hit, error = attach_or_build(path, reference)
        if mmap_hit:
            return False, "torn index store attached as an mmap hit"
        if not isinstance(error, IndexStoreError):
            return False, f"corruption not detected (error={error!r})"
        if rebuilt.content_hash != expected_hash:
            return False, "rebuilt store's content hash diverged"
        recovered = render(rebuilt.fmindex())
        if recovered != baseline:
            return False, "recovered index produced non-identical SAM"
        return True, ""


# --------------------------------------------------------------------- #
# The harness
# --------------------------------------------------------------------- #

def _check_schedule_determinism(plan_name: str, seed: int) -> Invariant:
    first = named_plan(plan_name, seed).preview_all(_PREVIEW_CALLS)
    second = named_plan(plan_name, seed).preview_all(_PREVIEW_CALLS)
    ok = first == second
    return Invariant(
        "schedule_deterministic", ok,
        "" if ok else "same (plan, seed) previewed different schedules")


def _compare_sam(baseline: Any, chaos: Any,
                 name: str = "sam_identical") -> Invariant:
    if baseline.responses is None or chaos.responses is None:
        return Invariant(name, False, "responses not collected")
    mismatches = []
    for idx, (base, alt) in enumerate(zip(baseline.responses,
                                          chaos.responses)):
        base_sam = None if base is None else base.get("sam")
        alt_sam = None if alt is None else alt.get("sam")
        if base_sam != alt_sam:
            mismatches.append(idx)
    ok = not mismatches
    return Invariant(
        name, ok,
        "" if ok else f"requests {mismatches[:5]} diverged "
                      f"({len(mismatches)} total)")


def run_chaos(plan_name: str = "ci-default", seed: int = 7,
              requests: int = 24, pair_fraction: float = 0.25,
              read_length: int = 101, reference_length: int = 20_000,
              parallelism: int = 2,
              cluster_backends: int = 0,
              plan: Optional[FaultPlan] = None) -> ChaosReport:
    """Execute the full chaos acceptance run; see the module docstring.

    Args:
        plan_name: a :data:`~repro.faults.plan.NAMED_PLANS` key.
        seed: fault-plan seed (also seeds the client retry jitter).
        requests: loadgen request count (pairs count as one).
        pair_fraction: fraction of requests that are mate pairs.
        read_length / reference_length: workload shape.
        parallelism: worker processes for the sharded phase.
        cluster_backends: when > 0, additionally run the same workload
            through a replicated ``repro.cluster`` gateway over this
            many *real* backend processes, SIGKILL one mid-load, and
            gate the ``backend_kill_zero_loss`` invariant (zero
            lost/duplicated responses, SAM byte-identical to the
            fault-free single-server baseline).  0 skips the phase —
            the in-process default for tier-1 tests; the CLI arms it.
        plan: a pre-built plan overriding ``plan_name``/``seed`` (the
            tests inject custom plans here).
    """
    from repro.genome.reads import ReadSimulator
    from repro.genome.reference import SyntheticReference
    from repro.service.loadgen import build_workload

    plan = plan if plan is not None else named_plan(plan_name, seed)
    report = ChaosReport(plan=plan.name, seed=plan.seed,
                         requests=requests)
    report.invariants.append(
        _check_schedule_determinism(plan.name, plan.seed)
        if plan.name in _named_plan_names() else
        Invariant("schedule_deterministic",
                  plan.preview_all(_PREVIEW_CALLS)
                  == plan.preview_all(_PREVIEW_CALLS)))

    reference = SyntheticReference(length=reference_length,
                                   chromosomes=2, seed=11).build()
    specs = build_workload(reference, requests, read_length=read_length,
                           seed=plan.seed, pair_fraction=pair_fraction)
    shard_reads = ReadSimulator(reference, read_length=read_length,
                                seed=plan.seed + 1).simulate(
                                    3 * _HARNESS_SHARD_SIZE)

    # One injector spans the whole chaos run, so its fired log is the
    # complete injection record the coverage invariant checks.
    injector = plan.injector()

    with obs.span("chaos_baseline", "chaos", requests=requests):
        baseline_report, _ = asyncio.run(
            _service_phase(reference, specs, plan.seed, None))
    report.baseline = _run_summary(baseline_report)
    base_ok = (baseline_report.dropped == 0
               and baseline_report.error_count == 0
               and baseline_report.completed == requests)
    report.invariants.append(Invariant(
        "baseline_clean", base_ok,
        "" if base_ok else ChaosReport._summary(report.baseline)))

    with obs.span("chaos_service", "chaos", requests=requests):
        chaos_report, server_stats = asyncio.run(
            _service_phase(reference, specs, plan.seed, injector))
    report.chaos = _run_summary(chaos_report)
    responses_full = (chaos_report.responses is not None
                      and all(r is not None
                              for r in chaos_report.responses))
    lost_ok = (chaos_report.dropped == 0
               and chaos_report.error_count == 0
               and chaos_report.completed == requests
               and responses_full)
    report.invariants.append(Invariant(
        "no_lost_or_duplicated_responses", lost_ok,
        "" if lost_ok else ChaosReport._summary(report.chaos)))
    report.invariants.append(_compare_sam(baseline_report, chaos_report))

    if cluster_backends > 0:
        from repro.service.protocol import SHED_ERRORS

        with obs.span("chaos_cluster", "chaos",
                      backends=cluster_backends, requests=requests):
            cluster = _cluster_phase(reference, specs, plan.seed,
                                     requests, cluster_backends, injector)
        cluster_report = cluster["report"]
        gw_counters = cluster["stats"].get("counters", {})
        kills: List[Tuple[str, int]] = cluster["kills"]
        report.chaos["cluster"] = _run_summary(cluster_report)
        report.chaos["cluster"]["kills"] = [
            {"backend": victim, "responses_at_kill": at}
            for victim, at in kills]
        report.chaos["cluster"]["failovers"] = gw_counters.get(
            "failovers_total", 0)
        report.chaos["cluster"]["backend_restarts"] = gw_counters.get(
            "backend_restarts_total", 0)
        report.chaos["cluster"]["backend_reconciles"] = gw_counters.get(
            "backend_reconciles_total", 0)
        report.chaos["cluster"]["supervisor"] = cluster["supervisor"]

        full = (cluster_report.responses is not None
                and all(r is not None for r in cluster_report.responses))
        zero_loss = (cluster_report.dropped == 0
                     and cluster_report.error_count == 0
                     and cluster_report.completed == requests
                     and full)
        mid_load = all(at < requests for _, at in kills)
        sam_inv = _compare_sam(baseline_report, cluster_report,
                               name="backend_kill_zero_loss")
        details = []
        if not zero_loss:
            details.append(ChaosReport._summary(report.chaos["cluster"]))
        if not mid_load:
            late = [f"{victim}@{at}" for victim, at in kills
                    if at >= requests]
            details.append(f"SIGKILL landed after the load finished "
                           f"({late}, {requests} requests)")
        if not sam_inv.ok:
            details.append(sam_inv.detail or "SAM diverged from the "
                                             "single-server baseline")
        if not kills:
            details.append("plan scheduled no backend_kill at the "
                           "cluster site; gated on zero loss only")
        ok = zero_loss and mid_load and sam_inv.ok
        report.invariants.append(Invariant(
            "backend_kill_zero_loss", ok, "; ".join(details)))

        if kills:
            # Supervisor-driven recovery: every victim restarted by the
            # monitor loop and readmitted by the gateway's live
            # reconciliation — the harness never readmits anything.
            victims = {victim for victim, _ in kills}
            recovery_ok = cluster["recovery_ok"]
            restarts_seen = gw_counters.get("backend_restarts_total", 0)
            reconciles_seen = gw_counters.get(
                "backend_reconciles_total", 0)
            counters_ok = (restarts_seen >= len(victims)
                           and reconciles_seen >= len(victims))
            restart_details = []
            if not recovery_ok:
                restart_details.append(cluster["recovery_detail"])
            if not counters_ok:
                restart_details.append(
                    f"gateway saw {restarts_seen} restart "
                    f"notification(s) and {reconciles_seen} successful "
                    f"reconciliation(s) for {len(victims)} victim(s)")
            if not zero_loss:
                restart_details.append("responses were lost (see "
                                       "backend_kill_zero_loss)")
            restart_ok = recovery_ok and counters_ok and zero_loss
            report.invariants.append(Invariant(
                "backend_restart_zero_loss", restart_ok,
                "; ".join(d for d in restart_details if d)))

        # Graceful degradation under open-loop overload: the burst does
        # overload the backend, every outcome is a success or a *typed*
        # shed, the backend's admission queue never exceeds its
        # configured bound, and admitted requests finish within the
        # client budget (plus scheduling slack).
        overload = cluster["overload_report"]
        ov_gauges = cluster["overload_stats"].get("gauges", {})
        depth_bound = cluster["overload_queue_depth"]
        budget_ms = cluster["overload_budget_ms"]
        peak_depth = ov_gauges.get("queue_depth_peak")
        untyped = sorted(code for code in overload.errors
                         if code not in SHED_ERRORS)
        p99_ms = overload.p99_ms if overload.completed else 0.0
        p99_budget_ms = budget_ms + 250.0
        report.chaos["cluster"]["overload"] = {
            "requests": overload.requests,
            "rate_per_s": round(cluster["overload_rate"], 1),
            "completed": overload.completed,
            "shed": overload.shed,
            "busy_sheds": overload.busy_sheds,
            "queue_timeout_sheds": overload.queue_timeout_sheds,
            "dropped": overload.dropped,
            "peak_queue_depth": peak_depth,
            "p99_ms": round(p99_ms, 3),
        }
        ov_details = []
        if overload.dropped != 0:
            ov_details.append(f"{overload.dropped} request(s) vanished "
                              f"without any response")
        if overload.shed == 0:
            ov_details.append("the burst never overloaded the backend "
                              "queue (nothing was shed)")
        if untyped:
            ov_details.append(f"untyped error codes under overload: "
                              f"{untyped}")
        if peak_depth is None:
            ov_details.append("backend reported no queue_depth_peak")
        elif peak_depth > depth_bound:
            ov_details.append(f"queue depth peaked at {peak_depth} "
                              f"(bound {depth_bound})")
        if p99_ms > p99_budget_ms:
            ov_details.append(f"p99 {p99_ms:.0f} ms exceeds budget "
                              f"{budget_ms:.0f} ms (+250 ms slack)")
        overload_ok = (overload.dropped == 0 and overload.shed > 0
                       and not untyped
                       and peak_depth is not None
                       and peak_depth <= depth_bound
                       and p99_ms <= p99_budget_ms)
        report.invariants.append(Invariant(
            "overload_graceful_degradation", overload_ok,
            "; ".join(ov_details)))

    with obs.span("chaos_sharded", "chaos", reads=len(shard_reads)):
        base_sam = _sharded_phase(reference, shard_reads, None,
                                  parallelism)
        chaos_sam = _sharded_phase(reference, shard_reads, injector,
                                   parallelism)
    sharded_ok = base_sam == chaos_sam
    report.invariants.append(Invariant(
        "sharded_bit_identical", sharded_ok,
        "" if sharded_ok else
        f"{sum(1 for a, b in zip(base_sam, chaos_sam) if a != b)} of "
        f"{len(base_sam)} records diverged"))

    report.fired = injector.fired_counts()

    with obs.span("chaos_index", "chaos"):
        index_ok, index_detail = _index_phase(
            reference, shard_reads[:_HARNESS_SHARD_SIZE])
    report.invariants.append(Invariant(
        "index_corruption_recovers", index_ok, index_detail))

    # Coverage is only *guaranteed* for kinds with exact at_calls
    # schedules; rate-based specs (the soak plan) fire probabilistically
    # and may legitimately stay quiet on a short run.
    guaranteed = {spec.kind for spec in plan.specs if spec.at_calls}
    missing = [kind for kind in plan.kinds()
               if kind in guaranteed and report.fired.get(kind, 0) < 1]
    # SHARD_KILL only manifests on parallel paths.
    if parallelism == 1 and SHARD_KILL in missing:
        missing.remove(SHARD_KILL)
    # BACKEND_KILL only manifests when the cluster phase runs; tier-1
    # in-process runs keep cluster_backends=0 and never cross the site.
    if cluster_backends == 0 and BACKEND_KILL in missing:
        missing.remove(BACKEND_KILL)
    report.invariants.append(Invariant(
        "all_fault_kinds_fired", not missing,
        "" if not missing else f"never fired: {missing}"))

    if server_stats is not None:
        report.chaos["server_faults"] = server_stats.get("faults", {})
        report.chaos["idempotent_hits"] = (
            server_stats.get("metrics", {}).get("counters", {})
            .get("idempotent_hits_total", 0))
    return report


def _named_plan_names() -> Tuple[str, ...]:
    from repro.faults.plan import NAMED_PLANS
    return tuple(NAMED_PLANS)
