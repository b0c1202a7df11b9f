"""Cluster throughput scaling: 1 backend vs 4 behind the gateway.

The acceptance measurement for the cluster tentpole: the same closed-loop
workload driven through a `repro.cluster` gateway, once over a single
backend process and once over four replicated backends.  Backends are
real processes (the supervisor spawns `repro serve` fleets sharing one
mmap'd index store), so scaling is bounded by physical cores: the
>= 2.5x assertion only arms on machines with at least 4 CPUs — elsewhere
the benchmark still records both throughputs for the regression gate.
"""

import asyncio
import os
import tempfile
import time

from repro.cluster import ClusterGateway, ClusterSupervisor, GatewayConfig
from repro.genome.io import write_fasta
from repro.genome.reads import ErrorModel, ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.service import loadgen

from conftest import run_once

REQUESTS = 160
CONCURRENCY = 64
READ_LENGTH = 101
SCALING_BACKENDS = 4
#: Required 4-backend/1-backend throughput ratio on >= 4 physical CPUs.
SCALING_FLOOR = 2.5

_throughputs = {}


def _bench_inputs(tmpdir):
    reference = SyntheticReference(length=60_000, chromosomes=1,
                                   seed=21).build()
    error = ErrorModel(substitution_rate=0.0, insertion_rate=0.0,
                       deletion_rate=0.0)
    reads = ReadSimulator(reference, read_length=READ_LENGTH,
                          error_model=error, seed=3).simulate(REQUESTS)
    fasta = os.path.join(tmpdir, "ref.fa")
    write_fasta(reference, fasta)
    return fasta, loadgen.workload_from_reads(reads)


def _drive(replicas):
    """Spawn the fleet, serve through a gateway, run the closed loop.

    Returns ``(report, requests_per_second)`` where the throughput
    covers only the measured loadgen window (spawn/index cost excluded),
    which is what the scaling assertion compares.
    """
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmpdir:
        fasta, specs = _bench_inputs(tmpdir)
        supervisor = ClusterSupervisor(
            reference_path=fasta,
            workdir=os.path.join(tmpdir, "work"),
            shards=1, replicas=replicas, workers=1)
        try:
            topology = supervisor.start()

            async def scenario():
                gateway = ClusterGateway(topology, config=GatewayConfig(
                    port=0, health_interval_s=0.0))
                await gateway.start()
                try:
                    # Warm request keeps per-backend engine warmup out
                    # of the measured window.
                    await loadgen.run_loadgen(
                        gateway.endpoint, specs[:1],
                        loadgen.LoadgenConfig(concurrency=1),
                        collect_server_stats=False)
                    started = time.monotonic()
                    report = await loadgen.run_loadgen(
                        gateway.endpoint, specs,
                        loadgen.LoadgenConfig(concurrency=CONCURRENCY),
                        collect_server_stats=False)
                    elapsed = time.monotonic() - started
                    return report, REQUESTS / elapsed
                finally:
                    await gateway.shutdown()

            return asyncio.run(scenario())
        finally:
            supervisor.stop(graceful=True)


def _check(report):
    assert report.completed == REQUESTS
    assert report.error_count == 0
    assert report.dropped == 0


def test_bench_cluster_1_backend(benchmark):
    report, throughput = run_once(benchmark, _drive, 1)
    _check(report)
    _throughputs[1] = throughput


def test_bench_cluster_4_backends(benchmark):
    report, throughput = run_once(benchmark, _drive, SCALING_BACKENDS)
    _check(report)
    _throughputs[SCALING_BACKENDS] = throughput
    if 1 in _throughputs and (os.cpu_count() or 1) >= SCALING_BACKENDS:
        ratio = _throughputs[SCALING_BACKENDS] / _throughputs[1]
        assert ratio >= SCALING_FLOOR, (
            f"{SCALING_BACKENDS} backends gave only {ratio:.2f}x the "
            f"1-backend throughput ({_throughputs})")
