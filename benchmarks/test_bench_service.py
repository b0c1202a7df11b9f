"""Service-layer benchmarks: dynamic batching vs batch-size-1 serving.

The acceptance measurement for the serving tentpole: the same closed-loop
workload driven through a live `AlignmentServer`, once with the dynamic
batcher coalescing up to 64 requests per engine call and once pinned to
batch-size 1 (no cross-request batching: each request's hits are extended
on their own).  Reads are
error-free and fixed-length so every extension window has the same shape
and the vectorized `smith_waterman_batch` kernel gets full batches —
exactly the NvWa occupancy argument, transplanted to the service layer.
"""

import asyncio

from repro.genome.reads import ErrorModel, ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.service import loadgen
from repro.service.server import AlignmentServer, ServerConfig

from conftest import run_once

REQUESTS = 160
CONCURRENCY = 64
READ_LENGTH = 101


def _bench_workload():
    """Error-free fixed-length reads -> uniform extension-window shapes."""
    reference = SyntheticReference(length=60_000, chromosomes=1,
                                   seed=21).build()
    error = ErrorModel(substitution_rate=0.0, insertion_rate=0.0,
                       deletion_rate=0.0)
    reads = ReadSimulator(reference, read_length=READ_LENGTH,
                          error_model=error, seed=3).simulate(REQUESTS)
    return reference, loadgen.workload_from_reads(reads)


def _drive(reference, specs, max_batch):
    """Serve in-process, warm the engine, then run the closed loop."""

    async def scenario():
        server = AlignmentServer(
            reference,
            config=ServerConfig(port=0, stats_interval_s=0, workers=1,
                                max_batch=max_batch))
        await server.start()
        try:
            # Warm request keeps index construction out of both windows.
            await loadgen.run_loadgen(server.endpoint, specs[:1],
                                      loadgen.LoadgenConfig(concurrency=1),
                                      collect_server_stats=False)
            return await loadgen.run_loadgen(
                server.endpoint, specs,
                loadgen.LoadgenConfig(concurrency=CONCURRENCY))
        finally:
            await server.shutdown(drain=True)

    return asyncio.run(scenario())


def _check(report):
    assert report.completed == REQUESTS
    assert report.error_count == 0
    assert report.dropped == 0


def test_bench_service_batched(benchmark):
    reference, specs = _bench_workload()
    report = run_once(benchmark, _drive, reference, specs,
                      max_batch=64)
    _check(report)
    occupancy = report.server_stats["metrics"]["histograms"]["batch_size"]
    assert occupancy["mean"] > 1.0, "batching never coalesced"


def test_bench_service_unbatched(benchmark):
    reference, specs = _bench_workload()
    report = run_once(benchmark, _drive, reference, specs,
                      max_batch=1)
    _check(report)
    occupancy = report.server_stats["metrics"]["histograms"]["batch_size"]
    assert occupancy["max"] == 1.0


def test_batched_serving_outpaces_unbatched():
    """Direct wall-clock check (independent of the bench harness):
    dynamic batching must raise service throughput over batch-size-1
    serving on the same workload — the tentpole acceptance criterion."""
    reference, specs = _bench_workload()
    batched = _drive(reference, specs, max_batch=64)
    unbatched = _drive(reference, specs, max_batch=1)
    _check(batched)
    _check(unbatched)
    assert batched.throughput_rps > unbatched.throughput_rps, (
        f"batched serving ({batched.throughput_rps:.0f} rps) should beat "
        f"batch-size-1 ({unbatched.throughput_rps:.0f} rps)")
