"""Service resilience: exactly-once under injected faults.

Pins the recovery half of the fault-injection layer at the service
boundary: graceful drain with a mid-batch crash loses nothing and
double-sends nothing, a client under a retry policy absorbs injected
connection drops without recomputation (idempotency dedup), and the
loadgen's readiness probe honours its ``wait_ready_s`` deadline budget.
"""

import asyncio
import json
import socket
import time

import pytest

from repro.faults.plan import (
    CONN_DROP,
    SITE_CONN_WRITE,
    SITE_ENGINE,
    WORKER_CRASH,
    FaultPlan,
    FaultSpec,
)
from repro.faults.retry import RetryPolicy
from repro.service.client import AsyncServiceClient
from repro.service.loadgen import LoadgenConfig, RequestSpec, run_loadgen
from repro.service.protocol import encode_align
from repro.service.server import AlignmentServer, ServerConfig
from tests.service.helpers import run, serving


def crash_plan(*calls):
    return FaultPlan(seed=1, specs=(
        FaultSpec(WORKER_CRASH, SITE_ENGINE, at_calls=tuple(calls)),))


def drop_plan(*calls, param=0.0):
    return FaultPlan(seed=1, specs=(
        FaultSpec(CONN_DROP, SITE_CONN_WRITE, at_calls=tuple(calls),
                  param=param),))


def test_drain_with_midbatch_crash_is_exactly_once(service_reference,
                                                   service_reads):
    """Satellite acceptance: an injected crash mid-drain loses no
    accepted request and double-sends none (raw-socket accounting)."""
    count = 12

    async def scenario():
        server = AlignmentServer(
            service_reference,
            config=ServerConfig(port=0, stats_interval_s=0, workers=1,
                                max_batch=4),
            fault_injector=crash_plan(1, 2).injector())
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        for idx, read in enumerate(service_reads[:count]):
            writer.write(
                encode_align(str(idx), read).encode() + b"\n")
        await writer.drain()
        while server.metrics.counter("align_requests_total").value < count:
            await asyncio.sleep(0.01)
        await server.shutdown(drain=True)
        # The drain flushed every response before teardown; exactly
        # `count` lines must be waiting, and not one more.
        lines = []
        for _ in range(count):
            raw = await asyncio.wait_for(reader.readline(), 5.0)
            assert raw, "connection closed before all responses arrived"
            lines.append(json.loads(raw))
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(reader.readline(), 0.3)
        writer.close()
        ids = [obj["id"] for obj in lines]
        assert sorted(ids, key=int) == [str(i) for i in range(count)]
        assert len(set(ids)) == len(ids) == count  # no duplicates
        assert all(obj["ok"] and obj["sam"] for obj in lines)
        snap = server.metrics.snapshot()
        assert snap["counters"]["worker_crashes_total"] >= 1
        assert snap["counters"]["responses_total"] == count

    run(scenario())


def test_resilient_client_survives_injected_drop(service_reference,
                                                 service_reads):
    """A dropped response reconnects, retries with the same idempotency
    key, and is answered from the dedup cache — never recomputed."""
    async def scenario():
        injector = drop_plan(2).injector()
        async with serving(service_reference,
                           fault_injector=injector) as (server, _):
            client = AsyncServiceClient(
                f"127.0.0.1:{server.port}",
                retry=RetryPolicy(max_attempts=5, base_delay_s=0.01,
                                  max_delay_s=0.05, seed=3))
            try:
                responses = [await client.align(read)
                             for read in service_reads[:3]]
            finally:
                await client.close()
            assert all(r["ok"] and r["sam"] for r in responses)
            assert client.retries >= 1
            assert client.reconnects >= 2  # initial connect + post-drop
            snap = server.metrics.snapshot()
            assert snap["counters"]["idempotent_hits_total"] >= 1
            assert snap["counters"]["injected_conn_faults_total"] == 1

    run(scenario())


def test_resilient_client_partial_write_drop(service_reference,
                                             service_reads):
    """A torn response (prefix written, then the drop) is discarded by
    the client and the retry still converges on the full payload."""
    async def scenario():
        injector = drop_plan(1, param=0.5).injector()
        async with serving(service_reference,
                           fault_injector=injector) as (server, _):
            client = AsyncServiceClient(
                f"127.0.0.1:{server.port}",
                retry=RetryPolicy(max_attempts=5, base_delay_s=0.01,
                                  max_delay_s=0.05, seed=3))
            try:
                response = await client.align(service_reads[0])
            finally:
                await client.close()
            assert response["ok"] and response["sam"]

    run(scenario())


def test_loadgen_retry_reports_absorbed_attempts(service_reference,
                                                 service_reads):
    """The chaos-harness path: loadgen + retry over an injected drop
    completes every request and surfaces the retry count."""
    async def scenario():
        injector = drop_plan(3).injector()
        async with serving(service_reference, max_batch=4,
                           fault_injector=injector) as (server, _):
            specs = [RequestSpec(reads=[read])
                     for read in service_reads[:8]]
            config = LoadgenConfig(
                concurrency=4, wait_ready_s=2.0,
                retry=RetryPolicy(max_attempts=5, base_delay_s=0.01,
                                  max_delay_s=0.05, seed=7))
            report = await run_loadgen(f"127.0.0.1:{server.port}", specs,
                                       config=config,
                                       collect_server_stats=False,
                                       collect_responses=True)
            assert report.completed == 8
            assert report.dropped == 0
            assert report.error_count == 0
            assert report.retried >= 1
            assert all(r is not None and r["ok"]
                       for r in report.responses)

    run(scenario())


def _closed_port() -> int:
    """A port nothing is listening on (bound briefly, then released)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.mark.parametrize("with_retry", [False, True])
def test_loadgen_connect_deadline(with_retry):
    """wait_ready_s is a hard budget: an unreachable endpoint fails
    within it instead of hanging (with and without a retry policy)."""
    port = _closed_port()
    retry = (RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=1)
             if with_retry else None)
    config = LoadgenConfig(concurrency=1, wait_ready_s=0.5, retry=retry)
    spec = RequestSpec(reads=[])  # never reached: connect fails first

    async def scenario():
        await run_loadgen(f"127.0.0.1:{port}", [spec], config=config,
                          collect_server_stats=False)

    started = time.monotonic()
    with pytest.raises((ConnectionError, OSError)):
        run(scenario())
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"deadline of 0.5s ran {elapsed:.1f}s"


def test_blocking_client_reconnects_under_policy(service_reference,
                                                 service_reads):
    """A blocking caller (its own event loop, as ``obs export --connect``
    runs) rides out an injected drop with the client under a policy."""
    async def scenario():
        injector = drop_plan(2).injector()
        async with serving(service_reference,
                           fault_injector=injector) as (server, _):
            async def session():
                client = AsyncServiceClient(
                    f"127.0.0.1:{server.port}", timeout_s=5.0,
                    retry=RetryPolicy(max_attempts=5, base_delay_s=0.01,
                                      max_delay_s=0.05, seed=2))
                try:
                    return [await client.align(read)
                            for read in service_reads[:3]]
                finally:
                    await client.close()

            responses = await asyncio.get_event_loop().run_in_executor(
                None, asyncio.run, session())
            assert all(r["ok"] and r["sam"] for r in responses)
            snap = server.metrics.snapshot()
            assert snap["counters"]["idempotent_hits_total"] >= 1

    run(scenario())


def test_response_meta_reports_retry_attempts(service_reference,
                                              service_reads):
    """Regression: align/align_pair responses must surface how many
    attempts the client burned — the only way callers (and the chaos
    report) can attribute latency to retries without scraping logs."""
    async def scenario():
        injector = drop_plan(1).injector()
        async with serving(service_reference,
                           fault_injector=injector) as (server, _):
            client = AsyncServiceClient(
                f"127.0.0.1:{server.port}",
                retry=RetryPolicy(max_attempts=5, base_delay_s=0.01,
                                  max_delay_s=0.05, seed=3))
            try:
                retried = await client.align(service_reads[0])
                clean = await client.align(service_reads[1])
            finally:
                await client.close()
            # First request ate the injected drop: >= 2 attempts.
            assert retried["meta"]["attempts"] >= 2
            assert retried["meta"]["retries"] == \
                retried["meta"]["attempts"] - 1
            # Clean request: exactly one attempt, zero retries.
            assert clean["meta"] == {"attempts": 1, "retries": 0}
            # A client without a policy still reports its one attempt;
            # stats payloads stay meta-free: they are pass-through
            # server state, not per-request outcomes.
            plain = AsyncServiceClient(f"127.0.0.1:{server.port}")
            try:
                single = await plain.align(service_reads[2])
                stats = await plain.stats()
            finally:
                await plain.close()
            assert single["meta"] == {"attempts": 1, "retries": 0}
            assert "meta" not in stats

    run(scenario())


def test_blocking_client_meta_attempts(service_reference, service_reads):
    """Same meta contract for a blocking caller driving the client on its
    own event loop, with and without a retry policy."""
    async def scenario():
        injector = drop_plan(1).injector()
        async with serving(service_reference,
                           fault_injector=injector) as (server, _):
            endpoint = f"127.0.0.1:{server.port}"

            async def session():
                client = AsyncServiceClient(
                    endpoint, timeout_s=5.0,
                    retry=RetryPolicy(max_attempts=5, base_delay_s=0.01,
                                      max_delay_s=0.05, seed=2))
                try:
                    first = await client.align(service_reads[0])
                    second = await client.align(service_reads[1])
                finally:
                    await client.close()
                # No-retry client still reports its single attempt.
                plain = AsyncServiceClient(endpoint, timeout_s=5.0)
                try:
                    third = await plain.align(service_reads[2])
                    stats = await plain.stats()
                finally:
                    await plain.close()
                return first, second, third, stats

            first, second, third, stats = await asyncio.get_event_loop() \
                .run_in_executor(None, asyncio.run, session())
            assert first["meta"]["attempts"] >= 2
            assert second["meta"] == {"attempts": 1, "retries": 0}
            assert third["meta"] == {"attempts": 1, "retries": 0}
            # stats payloads stay meta-free: they are pass-through server
            # state, not per-request outcomes.
            assert "meta" not in stats

    run(scenario())
