"""Command-line interface.

Subcommands (``python -m repro`` works identically)::

    python -m repro simulate  --length 100000 --reads 500 --out-prefix x
    python -m repro index build   --reference x.fa --out x.idx
    python -m repro index inspect x.idx
    python -m repro index verify  x.idx
    python -m repro align     --reference x.fa --reads x.fq --out x.sam
    python -m repro align     --reference x.fa --reads x.fq --index x.idx
    python -m repro accelerate --dataset H.s. --reads 2000
    python -m repro accelerate --reference x.fa --reads-file x.fq
    python -m repro experiments fig11 fig13 --quick
    python -m repro experiments --parallelism 4 --csv-dir out/
    python -m repro serve     --reference x.fa --port 7878
    python -m repro cluster   --reference x.fa --replicas 3 --port 7900
    python -m repro loadgen   --connect 127.0.0.1:7878 --reference x.fa
    python -m repro chaos     --fault-plan ci-default --seed 7
    python -m repro obs export --connect 127.0.0.1:7878
    python -m repro obs validate trace.json
    python -m repro lint      src/ --baseline lint-baseline.json

``--parallelism N`` fans work out over N worker processes; results are
bit-identical to the serial run for every worker count.
``serve`` runs the online alignment service (dynamic batching, admission
control, live metrics) and ``loadgen`` benchmarks it.  ``chaos`` runs
serve + loadgen + the sharded runtime under a seeded fault plan and
gates on the resilience invariants (see docs/RESILIENCE.md); ``serve
--fault-plan`` arms the same injection on a long-lived server.
``cluster`` fronts a spawned backend fleet with the gateway and — by
default — arms the self-healing control plane: a supervisor monitor
loop restarts dead backends with exponential backoff (crash-loopers are
permanently ejected) and the gateway readmits them live; each backend's
admission queue sheds expired waits as typed ``queue_timeout`` errors
(``loadgen --budget-ms`` exercises them from the client side).

``index build`` serializes the FM-index + reference into the versioned,
checksummed store of :mod:`repro.seeding.store`; ``align --index`` and
``serve --index`` then memory-map it zero-copy (one physical copy shared
by every worker process/thread) instead of rebuilding it, with
bit-identical output.  ``index verify`` re-hashes every array payload
and exits nonzero on corruption.

``--trace-out FILE`` on ``align``/``accelerate``/``serve``/``loadgen``
enables the :mod:`repro.obs` tracer and writes a Chrome ``trace_event``
JSON on exit (load it in Perfetto or chrome://tracing); ``obs export``
renders a metrics snapshot in Prometheus text format and ``obs
validate`` sanity-checks a trace file.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional


def _start_tracing(args: argparse.Namespace) -> Optional[str]:
    """Enable the global tracer when ``--trace-out`` was given."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro import obs
        obs.configure(enabled=True)
    return trace_out


def _write_trace(trace_out: Optional[str], extra_events=None) -> None:
    """Export the global tracer's events as a Chrome trace file."""
    if not trace_out:
        return
    from repro import obs
    obs.write_chrome_trace(trace_out, obs.get_tracer(),
                           extra_events=extra_events)
    print(f"wrote trace {trace_out} (load in Perfetto or "
          f"chrome://tracing)")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.genome.io import write_fasta, write_fastq
    from repro.genome.reads import ErrorModel, ReadSimulator
    from repro.genome.reference import SyntheticReference

    reference = SyntheticReference(length=args.length,
                                  chromosomes=args.chromosomes,
                                  seed=args.seed).build()
    error = ErrorModel(substitution_rate=args.error_rate,
                       insertion_rate=args.error_rate / 10,
                       deletion_rate=args.error_rate / 10)
    reads = ReadSimulator(reference, read_length=args.read_length,
                          error_model=error, seed=args.seed).simulate(
                              args.reads)
    fasta = f"{args.out_prefix}.fa"
    fastq = f"{args.out_prefix}.fq"
    write_fasta(reference, fasta)
    write_fastq(reads, fastq)
    print(f"wrote {fasta} ({len(reference):,} bp) and {fastq} "
          f"({len(reads)} reads)")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.genome.io import read_reference
    from repro.seeding.store import build_index_store

    trace_out = _start_tracing(args)
    reference = read_reference(args.reference)
    store = build_index_store(reference, args.out,
                              occ_interval=args.occ_interval,
                              sa_sample=args.sa_sample,
                              source=os.path.basename(args.reference))
    size = os.path.getsize(args.out)
    print(f"built {args.out} ({size:,} bytes over {len(reference):,} bp, "
          f"occ_interval={args.occ_interval}, sa_sample={args.sa_sample})")
    print(f"content hash: {store.content_hash}")
    _write_trace(trace_out)
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.seeding.store import IndexStore, IndexStoreError

    try:
        store = IndexStore.open(args.path)
    except IndexStoreError as exc:
        print(f"FAIL: {type(exc).__name__}: {exc}")
        return 1
    print(json.dumps(store.describe(), indent=2, sort_keys=True))
    return 0


def _cmd_index_verify(args: argparse.Namespace) -> int:
    from repro.seeding.store import IndexStore, IndexStoreError

    try:
        store = IndexStore.open(args.path, verify=True)
    except IndexStoreError as exc:
        print(f"FAIL: {type(exc).__name__}: {exc}")
        return 1
    print(f"ok: {args.path} (format v{store.format_version}, "
          f"{store.meta['text_length']:,} bp, "
          f"content {store.content_hash[:16]})")
    return 0


def _open_index_for(reference, index_path: str):
    """Open an index store and insist it was built for ``reference``."""
    from repro.seeding.store import IndexStore

    store = IndexStore.open(index_path)
    if not store.matches_reference(reference):
        raise SystemExit(
            f"FAIL: index {index_path} was built for a different "
            f"reference (rebuild with: repro index build)")
    return store


def _cmd_align(args: argparse.Namespace) -> int:
    from repro.align.sam import write_sam
    from repro.analysis.accuracy import evaluate
    from repro.genome.io import parse_fastq, read_reference
    from repro.runtime.sharded import ShardedRunner

    trace_out = _start_tracing(args)
    reference = read_reference(args.reference)
    reads = list(parse_fastq(args.reads))
    if args.index:
        _open_index_for(reference, args.index)  # fail fast on mismatch
    runner = ShardedRunner(parallelism=args.parallelism,
                           shard_size=args.shard_size)
    results = runner.align(reference, reads, index_path=args.index)
    report = evaluate(results, reference)
    print(f"mapped {report.mapped}/{report.total} reads "
          f"({report.mapped_fraction:.1%})")
    if args.out:
        write_sam(results, reference, args.out)
        print(f"wrote {args.out}")
    _write_trace(trace_out)
    return 0


def _cmd_accelerate(args: argparse.Namespace) -> int:
    from repro.core import baseline
    from repro.runtime.sweep import simulate_many

    if args.reference and args.reads_file:
        from repro.align.pipeline import SoftwareAligner
        from repro.core import workload_from_pipeline
        from repro.genome.io import parse_fastq, read_reference
        reference = read_reference(args.reference)
        reads = list(parse_fastq(args.reads_file))
        results = SoftwareAligner(reference).align_all(reads)
        workload = workload_from_pipeline(results)
        source = f"{len(reads)} reads from {args.reads_file}"
    else:
        from repro.core.workload import synthetic_workload
        from repro.genome.datasets import get_dataset
        profile = get_dataset(args.dataset)
        workload = synthetic_workload(profile, args.reads, seed=args.seed)
        source = f"{args.reads} synthetic {profile.name} reads"

    jobs = [("NvWa", baseline.nvwa()),
            ("SUs+EUs", baseline.sus_eus_baseline())]
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        # Run the simulations directly (bit-identical to the serial
        # sweep path) so the full reports — and their utilization
        # traces — are still in hand for the export.
        from repro import obs
        from repro.core.accelerator import NvWaAccelerator
        from repro.runtime.sweep import summarize
        obs.configure(enabled=True)
        extra_events = []
        results = []
        for idx, (label, config) in enumerate(jobs):
            with obs.span("simulate", "sim", config=label):
                report = NvWaAccelerator(config).run(workload)
            results.append(summarize(report))
            base_pid = 10 * (idx + 1)
            extra_events += obs.utilization_events(
                report.su_trace, pid=base_pid,
                process_name=f"{label} SUs")
            extra_events += obs.utilization_events(
                report.eu_trace, pid=base_pid + 1,
                process_name=f"{label} EUs")
        nvwa, base = results
    else:
        nvwa, base = simulate_many(
            [(config, workload, None) for _, config in jobs],
            parallelism=args.parallelism)
    print(f"workload: {source}, {workload.total_hits} hits")
    print(f"NvWa:    {nvwa.cycles:>10,} cycles  "
          f"{nvwa.kreads_per_second:>12,.0f} Kreads/s  "
          f"SU {nvwa.su_utilization:.0%}  EU {nvwa.eu_utilization:.0%}")
    print(f"SUs+EUs: {base.cycles:>10,} cycles  "
          f"{base.kreads_per_second:>12,.0f} Kreads/s  "
          f"SU {base.su_utilization:.0%}  EU {base.eu_utilization:.0%}")
    print(f"scheduling speedup: {base.cycles / nvwa.cycles:.2f}x")
    if trace_out:
        _write_trace(trace_out, extra_events=extra_events)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_experiments
    for result in run_experiments(args.names, quick=args.quick,
                                  csv_dir=args.csv_dir,
                                  parallelism=args.parallelism):
        print(result.format())
        panel = getattr(result, "panel", None)
        if panel:
            print("-- utilization over time --")
            print(panel)
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging
    import signal

    from repro.genome.io import read_reference
    from repro.service.server import AlignmentServer, ServerConfig

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    trace_out = _start_tracing(args)
    reference = read_reference(args.reference)
    if args.index:
        _open_index_for(reference, args.index)  # fail fast on mismatch
        print(f"index store: {args.index} (mmap-attached per worker)",
              flush=True)
    config = ServerConfig(
        host=args.host, port=args.port, unix_path=args.unix_socket,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth, workers=args.workers,
        request_timeout_s=args.request_timeout_ms / 1000.0,
        stats_interval_s=args.stats_interval,
        breaker_threshold=args.breaker_threshold,
        breaker_window_s=args.breaker_window,
        breaker_cooldown_s=args.breaker_cooldown,
        index_path=args.index)
    fault_injector = None
    if args.fault_plan:
        from repro.faults.plan import named_plan
        fault_injector = named_plan(args.fault_plan,
                                    args.fault_seed).injector()
        print(f"fault injection armed: plan={args.fault_plan} "
              f"seed={args.fault_seed}", flush=True)

    async def serve() -> None:
        server = AlignmentServer(reference, config=config,
                                 fault_injector=fault_injector)
        await server.start()
        print(f"serving on {server.endpoint}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-UNIX event loops
                signal.signal(sig, lambda *_: stop.set())
        serve_task = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("shutting down: draining queued requests...", flush=True)
        serve_task.cancel()
        await server.shutdown(drain=True)

    asyncio.run(serve())
    _write_trace(trace_out)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import logging
    import signal
    import tempfile

    from repro.cluster import ClusterGateway, ClusterSupervisor, \
        GatewayConfig

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    from repro.cluster import RestartPolicy

    trace_out = _start_tracing(args)
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-cluster-")
    supervisor = ClusterSupervisor(
        reference_path=args.reference, workdir=workdir,
        shards=args.shards, replicas=args.replicas,
        index_path=args.index, workers=args.workers,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        restart_policy=RestartPolicy(
            backoff_base_s=args.restart_backoff,
            crash_loop_threshold=args.crash_loop_threshold,
            crash_loop_window_s=args.crash_loop_window))
    config = GatewayConfig(
        host=args.host, port=args.port, unix_path=args.unix_socket,
        health_interval_s=args.health_interval,
        request_timeout_s=args.request_timeout_ms / 1000.0,
        default_budget_ms=args.default_budget_ms)

    async def serve() -> None:
        gateway = ClusterGateway(topology, config=config)
        await gateway.start()
        supervisor.write_state(gateway_endpoint=gateway.endpoint)
        if not args.no_auto_restart:
            supervisor.start_monitor(
                interval_s=args.monitor_interval,
                on_event=gateway.supervisor_listener())
            print(f"self-healing armed: monitor every "
                  f"{args.monitor_interval}s, backoff from "
                  f"{args.restart_backoff}s, crash-loop eject after "
                  f"{args.crash_loop_threshold} deaths/"
                  f"{args.crash_loop_window}s", flush=True)
        print(f"cluster state: {supervisor.state_path}", flush=True)
        print(f"serving on {gateway.endpoint}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-UNIX event loops
                signal.signal(sig, lambda *_: stop.set())
        serve_task = asyncio.ensure_future(gateway.serve_forever())
        await stop.wait()
        print("shutting down: draining gateway...", flush=True)
        supervisor.stop_monitor()
        serve_task.cancel()
        await gateway.shutdown()

    try:
        topology = supervisor.start()
        print(f"spawned {len(topology.backends)} backends "
              f"({topology.shards} shard(s) x {topology.replicas} "
              f"replica(s)) in {workdir}", flush=True)
        asyncio.run(serve())
    finally:
        supervisor.stop(graceful=True)
    _write_trace(trace_out)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service import loadgen

    trace_out = _start_tracing(args)
    if args.reads_file:
        from repro.genome.io import parse_fastq
        reads = list(parse_fastq(args.reads_file))[:args.requests]
        specs = loadgen.workload_from_reads(reads)
    else:
        from repro.genome.io import read_reference
        reference = read_reference(args.reference)
        specs = loadgen.build_workload(
            reference, args.requests, read_length=args.read_length,
            seed=args.seed, pair_fraction=args.pair_fraction)
    retry = None
    if args.retries > 0:
        from repro.faults.retry import RetryPolicy
        retry = RetryPolicy(max_attempts=args.retries + 1,
                            seed=args.seed)
    config = loadgen.LoadgenConfig(
        concurrency=args.concurrency, mode=args.mode, rate=args.rate,
        wait_ready_s=args.wait_ready, retry=retry,
        budget_ms=args.budget_ms)
    report = loadgen.run(args.connect, specs, config=config)
    print(report.format())
    failures = []
    if report.dropped:
        failures.append(f"{report.dropped} requests got no response")
    if report.error_count and not args.allow_errors:
        failures.append(f"{report.error_count} requests errored")
    if args.max_p99_ms is not None and report.p99_ms > args.max_p99_ms:
        failures.append(f"p99 {report.p99_ms:.1f} ms exceeds "
                        f"--max-p99-ms {args.max_p99_ms}")
    for failure in failures:
        print(f"FAIL: {failure}")
    _write_trace(trace_out)
    return 1 if failures else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    trace_out = _start_tracing(args)
    report = run_chaos(plan_name=args.fault_plan, seed=args.seed,
                       requests=args.requests,
                       pair_fraction=args.pair_fraction,
                       parallelism=args.parallelism,
                       cluster_backends=args.cluster_backends)
    print(report.format())
    _write_trace(trace_out)
    return 0 if report.passed else 1


#: Bound on ``obs export --connect``: dial, and the stats round trip.
_EXPORT_TIMEOUT_S = 30.0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Metrics snapshot → Prometheus text exposition."""
    import json

    from repro.obs import prometheus_text

    if args.connect:
        import asyncio

        from repro.service.client import AsyncServiceClient

        async def fetch() -> dict:
            client = AsyncServiceClient(args.connect,
                                        timeout_s=_EXPORT_TIMEOUT_S)
            try:
                return await asyncio.wait_for(client.stats(),
                                              _EXPORT_TIMEOUT_S)
            finally:
                await client.close()

        stats = asyncio.run(fetch())
    else:
        with open(args.stats_json, "r", encoding="utf-8") as handle:
            stats = json.load(handle)
    snapshot = stats.get("metrics", stats)
    kwargs = {} if args.prefix is None else {"prefix": args.prefix}
    text = prometheus_text(snapshot, **kwargs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    """Check a Chrome trace file; nonzero exit on problems."""
    import json

    from repro.obs import trace_problems

    with open(args.trace, "r", encoding="utf-8") as handle:
        try:
            trace = json.load(handle)
        except json.JSONDecodeError as exc:
            print(f"FAIL: {args.trace} is not valid JSON: {exc}")
            return 1
    problems = trace_problems(trace)
    events = trace.get("traceEvents", [])
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    spans = sum(1 for e in events if e.get("ph") == "X")
    print(f"ok: {len(events)} events ({spans} spans) in {args.trace}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint
    return run_lint(args)


def _cmd_report_card(args: argparse.Namespace) -> int:
    from repro.experiments.report_card import format_card, run
    criteria = run(quick=args.quick)
    print(format_card(criteria))
    return 0 if all(c.passed for c in criteria) else 1


def _add_trace_out(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--trace-out", metavar="FILE", help=help)


def _checked(kind, rule: str, ok):
    """An argparse ``type=`` that parses with ``kind`` and checks ``ok``.

    A failed check is a usage error (exit 2) naming the flag, never a
    traceback from whatever the value would have reached.
    """
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid int value: ..."
    return parse


_AT_LEAST_ONE = _checked(int, ">= 1", lambda v: v >= 1)
_NON_NEGATIVE_INT = _checked(int, ">= 0", lambda v: v >= 0)
_NON_NEGATIVE = _checked(float, ">= 0", lambda v: v >= 0)
_POSITIVE = _checked(float, "positive", lambda v: v > 0)
_FRACTION = _checked(float, "in [0, 1]", lambda v: 0 <= v <= 1)
_PORT = _checked(int, "in [0, 65535]", lambda v: 0 <= v <= 65535)


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text}")
    return text


#: Options several subcommands take, each declared once.
_SHARED_OPTIONS = {
    "--index": dict(type=_existing_file,
                    help="prebuilt index store (repro index build); "
                         "memory-mapped instead of rebuilding the FM-index"),
    "--parallelism": dict(type=_AT_LEAST_ONE, default=1,
                          help="fan work out over N worker processes"),
    "--host": dict(default="127.0.0.1"),
    "--port": dict(type=_PORT, default=7878,
                   help="TCP port (0 = ephemeral)"),
    "--unix-socket": dict(help="listen on a UNIX socket instead of TCP"),
    "--workers": dict(type=_AT_LEAST_ONE, default=2,
                      help="engine worker threads per server "
                           "(one aligner each)"),
    "--max-batch": dict(type=_AT_LEAST_ONE, default=64,
                        help="dispatch a batch as soon as it reaches "
                             "this size"),
    "--max-wait-ms": dict(type=_NON_NEGATIVE, default=2.0,
                          help="longest a lone request waits for "
                               "batchmates"),
    "--request-timeout-ms": dict(type=_NON_NEGATIVE, default=30_000.0,
                                 help="per-request deadline (0 disables)"),
}
_LISTENER_OPTIONS = ("--host", "--port", "--unix-socket", "--workers",
                     "--max-batch", "--max-wait-ms", "--request-timeout-ms")


def _shared(*flags: str) -> List[argparse.ArgumentParser]:
    """A fresh ``parents=`` list declaring the named shared options.

    Fresh per subcommand because argparse shares a parent's action
    objects with every child: one child's ``set_defaults`` would
    otherwise change the others' defaults too.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **_SHARED_OPTIONS[flag])
    return [parent]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NvWa (HPCA 2023) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a reference + reads")
    p.add_argument("--length", type=_AT_LEAST_ONE, default=100_000)
    p.add_argument("--chromosomes", type=_AT_LEAST_ONE, default=2)
    p.add_argument("--reads", type=int, default=500)
    p.add_argument("--read-length", type=_AT_LEAST_ONE, default=101)
    p.add_argument("--error-rate", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("index",
                       help="build / inspect / verify the on-disk "
                            "memory-mapped FM-index store")
    index_sub = p.add_subparsers(dest="index_command", required=True)
    p = index_sub.add_parser(
        "build", help="serialize the FM-index of a FASTA reference")
    p.add_argument("--reference", required=True, help="FASTA to index")
    p.add_argument("--out", required=True, help="index store path (.idx)")
    p.add_argument("--occ-interval", type=_AT_LEAST_ONE, default=128,
                   help="Occ checkpoint spacing (paper: 128)")
    p.add_argument("--sa-sample", type=_AT_LEAST_ONE, default=1,
                   help="keep every Nth suffix-array entry (1 = full SA)")
    _add_trace_out(p, "write a Chrome trace of the build")
    p.set_defaults(func=_cmd_index_build)
    p = index_sub.add_parser(
        "inspect", help="print a store's header and array table as JSON")
    p.add_argument("path", help="index store path")
    p.set_defaults(func=_cmd_index_inspect)
    p = index_sub.add_parser(
        "verify", help="re-hash every array payload; nonzero on corruption")
    p.add_argument("path", help="index store path")
    p.set_defaults(func=_cmd_index_verify)

    p = sub.add_parser("align", help="align FASTQ reads to a FASTA reference",
                       parents=_shared("--index", "--parallelism"))
    p.add_argument("--reference", required=True)
    p.add_argument("--reads", required=True)
    p.add_argument("--out", help="SAM output path")
    p.add_argument("--shard-size", type=_AT_LEAST_ONE, default=256,
                   help="reads per shard: one worker task and one "
                        "batched extension step")
    _add_trace_out(p, "write a Chrome trace of the pipeline stages")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("accelerate",
                       help="simulate NvWa vs the SUs+EUs baseline",
                       parents=_shared("--parallelism"))
    p.add_argument("--dataset", default="H.s.")
    p.add_argument("--reads", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", help="FASTA (with --reads-file)")
    p.add_argument("--reads-file", help="FASTQ (with --reference)")
    _add_trace_out(p, "write a Chrome trace incl. SU/EU busy intervals")
    p.set_defaults(func=_cmd_accelerate)

    p = sub.add_parser("experiments", help="regenerate paper exhibits",
                       parents=_shared("--parallelism"))
    p.add_argument("names", nargs="*",
                   help="exhibit keys (fig11, table2, ...); empty = all")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--csv-dir", help="also write CSVs here")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("serve",
                       help="run the online alignment service",
                       parents=_shared("--index", *_LISTENER_OPTIONS))
    p.add_argument("--reference", required=True, help="FASTA to serve")
    p.add_argument("--queue-depth", type=_AT_LEAST_ONE, default=1024,
                   help="admission bound; beyond it requests are rejected")
    p.add_argument("--stats-interval", type=float, default=10.0,
                   help="seconds between stats log lines (0 disables)")
    p.add_argument("--breaker-threshold", type=_AT_LEAST_ONE, default=8,
                   help="worker crashes in the window before the circuit "
                        "breaker sheds new work with 'busy'")
    p.add_argument("--breaker-window", type=_POSITIVE, default=10.0,
                   help="sliding failure window seconds")
    p.add_argument("--breaker-cooldown", type=_NON_NEGATIVE, default=2.0,
                   help="seconds in degraded mode before a half-open probe")
    p.add_argument("--fault-plan", choices=["ci-default", "soak", "none"],
                   help="arm seeded fault injection with this named plan")
    p.add_argument("--fault-seed", type=int, default=7,
                   help="seed for --fault-plan schedules")
    _add_trace_out(p, "write a Chrome trace of request/batch/kernel "
                      "spans at shutdown")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("cluster",
                       help="run a gateway + backend fleet (scatter/"
                            "gather, failover, per-backend breakers)",
                       parents=_shared("--index", *_LISTENER_OPTIONS))
    p.set_defaults(port=7900)
    p.add_argument("--reference", required=True, help="FASTA to serve")
    p.add_argument("--shards", type=_AT_LEAST_ONE, default=1,
                   help="partition the reference over N shard groups "
                        "(scatter/gather when > 1)")
    p.add_argument("--replicas", type=_AT_LEAST_ONE, default=3,
                   help="backends per shard group")
    p.add_argument("--health-interval", type=_NON_NEGATIVE, default=0.5,
                   help="seconds between backend health pings; a "
                        "missed ping counts against the backend's "
                        "circuit breaker (0 disables the pings)")
    p.add_argument("--default-budget-ms", type=_NON_NEGATIVE, default=0.0,
                   help="deadline budget forwarded to the backends for "
                        "requests that do not carry budget_ms (0 = none)")
    p.add_argument("--no-auto-restart", action="store_true",
                   help="disable the self-healing monitor loop "
                        "(dead backends stay dead)")
    p.add_argument("--monitor-interval", type=_POSITIVE, default=0.5,
                   help="seconds between supervisor liveness sweeps")
    p.add_argument("--restart-backoff", type=_POSITIVE, default=0.25,
                   help="base restart backoff seconds (doubles per "
                        "rapid death, capped)")
    p.add_argument("--crash-loop-threshold", type=_AT_LEAST_ONE, default=5,
                   help="deaths inside the crash-loop window before a "
                        "backend is permanently ejected")
    p.add_argument("--crash-loop-window", type=_POSITIVE, default=30.0,
                   help="crash-loop detection window seconds")
    p.add_argument("--workdir",
                   help="scratch dir for shard FASTAs/indexes/logs/"
                        "cluster.json (default: a fresh temp dir)")
    _add_trace_out(p, "write a Chrome trace of route/gather "
                      "spans at shutdown")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("loadgen",
                       help="benchmark a running alignment service")
    p.add_argument("--connect", required=True,
                   help="host:port or unix:/path of the server")
    p.add_argument("--reference",
                   help="FASTA to sample request reads from")
    p.add_argument("--reads-file",
                   help="FASTQ of requests (instead of sampling)")
    p.add_argument("--requests", type=_AT_LEAST_ONE, default=200)
    p.add_argument("--concurrency", type=_AT_LEAST_ONE, default=64,
                   help="closed-loop in-flight request bound")
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument("--rate", type=_POSITIVE, default=200.0,
                   help="open-loop arrivals per second")
    p.add_argument("--pair-fraction", type=_FRACTION, default=0.0,
                   help="fraction of requests that are read pairs")
    p.add_argument("--read-length", type=int, default=101)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wait-ready", type=float, default=0.0,
                   help="retry the initial connect for this many seconds")
    p.add_argument("--retries", type=_NON_NEGATIVE_INT, default=0,
                   help="per-request retries (reconnect on drops, back "
                        "off on busy/overloaded, idempotency-key dedup)")
    p.add_argument("--budget-ms", type=_POSITIVE, default=None,
                   help="per-request deadline budget carried on the "
                        "wire; backends shed expired queue waits with "
                        "'queue_timeout' instead of 'busy'")
    p.add_argument("--max-p99-ms", type=float,
                   help="exit nonzero if p99 latency exceeds this")
    p.add_argument("--allow-errors", action="store_true",
                   help="do not fail the run on rejected/errored requests")
    _add_trace_out(p, "write a Chrome trace of client request spans")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("chaos",
                       help="run the seeded fault-injection acceptance "
                            "harness and gate on its invariants",
                       parents=_shared("--parallelism"))
    p.set_defaults(parallelism=2)
    p.add_argument("--fault-plan", default="ci-default",
                   choices=["ci-default", "soak", "cluster-restart",
                            "none"],
                   help="named fault plan to inject")
    p.add_argument("--seed", type=int, default=7,
                   help="fault schedule + retry jitter seed")
    p.add_argument("--requests", type=_AT_LEAST_ONE, default=24,
                   help="loadgen requests per service phase")
    p.add_argument("--pair-fraction", type=_FRACTION, default=0.25,
                   help="fraction of requests that are mate pairs")
    p.add_argument("--cluster-backends", type=_NON_NEGATIVE_INT, default=3,
                   help="replicated gateway backends for the backend-"
                        "kill phase (0 skips the cluster phase)")
    _add_trace_out(p, "write a Chrome trace of the whole chaos run")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("obs", help="tracing / metrics export utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "export", help="render a metrics snapshot as Prometheus text")
    p.add_argument("--connect",
                   help="host:port or unix:/path of a live server")
    p.add_argument("--stats-json",
                   help="saved stats JSON instead of a live server")
    p.add_argument("--prefix", default=None,
                   help="metric name prefix (default repro_)")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_obs_export)
    p = obs_sub.add_parser(
        "validate", help="check a Chrome trace file for well-formedness")
    p.add_argument("trace", help="trace JSON path")
    p.set_defaults(func=_cmd_obs_validate)

    p = sub.add_parser("lint",
                       help="run the determinism/concurrency analyzer")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("report-card",
                       help="check every reproduction criterion")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_report_card)
    return parser


def _validate(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> None:
    """Reject option combinations no single ``type=`` can check."""
    command = getattr(args, "command", None)
    if command == "experiments":
        from repro.experiments.runner import EXPERIMENTS
        unknown = [name for name in args.names if name not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiments {unknown}; known: "
                         f"{', '.join(EXPERIMENTS)}")
    if command == "loadgen" and not args.reads_file and not args.reference:
        parser.error("loadgen needs --reference or --reads-file")
    if command == "cluster" and args.index and args.shards > 1:
        parser.error("--index applies to replicated mode only; "
                     "sharded mode builds per-shard stores itself")
    if command == "obs" and getattr(args, "obs_command", None) == "export":
        if not args.connect and not args.stats_json:
            parser.error("obs export needs --connect or --stats-json")
        if args.connect and args.stats_json:
            parser.error("obs export takes --connect or --stats-json, "
                         "not both")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
