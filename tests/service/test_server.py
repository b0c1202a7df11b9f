"""Server robustness: admission control, timeouts, crash recovery, drain."""

import asyncio
import json
import time

import pytest

from repro.faults import FlakyEngine
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.engine import AlignmentEngine
from repro.service.protocol import decode_response
from repro.service.server import AlignmentServer, ServerConfig
from tests.service.helpers import run, serving


class SlowEngine:
    """Delays every batch; lets tests build a backlog deterministically."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s

    def execute(self, requests):
        time.sleep(self.delay_s)
        return self.inner.execute(requests)


def test_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(max_batch=0)
    with pytest.raises(ValueError):
        ServerConfig(workers=0)
    with pytest.raises(ValueError):
        ServerConfig(queue_depth=-1)
    with pytest.raises(ValueError):
        ServerConfig(request_timeout_s=-1)


def test_ping_and_stats(service_reference, service_reads):
    async def scenario():
        async with serving(service_reference) as (server, client):
            assert await client.ping()
            await client.align(service_reads[0])
            stats = await client.stats()
            assert stats["metrics"]["counters"]["responses_total"] == 1
            assert stats["config"]["max_batch"] == 64
            assert stats["batcher"]["dispatched_items"] == 1
    run(scenario())


def test_overload_rejection_and_recovery(service_reference, service_reads):
    """A full queue rejects with `overloaded`; accepted work completes."""
    async def scenario():
        factory = (lambda: SlowEngine(AlignmentEngine(service_reference),
                                      delay_s=0.1))
        async with serving(service_reference, engine_factory=factory,
                           workers=1, max_batch=1, queue_depth=2,
                           ) as (server, client):
            tasks = [asyncio.ensure_future(client.align(read))
                     for read in service_reads[:10]]
            outcomes = await asyncio.gather(*tasks,
                                            return_exceptions=True)
            rejected = [o for o in outcomes
                        if isinstance(o, ServiceError)
                        and o.code == "overloaded"]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert rejected, "queue_depth=2 should have shed load"
            assert served, "admitted requests must still be served"
            assert len(rejected) + len(served) == 10
            snap = server.metrics.snapshot()
            assert snap["counters"]["rejected_total"] == len(rejected)
    run(scenario())


def test_request_timeout(service_reference, service_reads):
    async def scenario():
        factory = (lambda: SlowEngine(AlignmentEngine(service_reference),
                                      delay_s=0.3))
        async with serving(service_reference, engine_factory=factory,
                           workers=1, request_timeout_s=0.05,
                           ) as (server, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.align(service_reads[0])
            assert excinfo.value.code == "timeout"
            assert server.metrics.snapshot()["counters"][
                "timeouts_total"] == 1
    run(scenario())


def test_budget_spent_in_queue_sheds_queue_timeout(service_reference,
                                                   service_reads):
    """A direct client's ``budget_ms`` is honoured by the server: spent
    while queued behind a slow batch, the request is shed with the
    typed ``queue_timeout`` and never executes."""
    async def scenario():
        factory = (lambda: SlowEngine(AlignmentEngine(service_reference),
                                      delay_s=0.5))
        async with serving(service_reference, engine_factory=factory,
                           workers=1, max_batch=1) as (server, client):
            holder = asyncio.ensure_future(client.align(service_reads[0]))
            await asyncio.sleep(0.05)
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                await client.align(service_reads[1], budget_ms=50.0)
            assert excinfo.value.code == "queue_timeout"
            assert time.monotonic() - started < 0.4  # shed at the deadline
            assert "sam" in await holder
            snap = server.metrics.snapshot()["counters"]
            assert snap["shed_queue_timeout_total"] == 1
            assert snap.get("timeouts_total", 0) == 0
            assert server._batcher.stats.dispatched_items == 1
    run(scenario())


def test_worker_crash_replays_batch(service_reference, service_reads):
    """A crashing engine is discarded and the batch replayed on a fresh
    one — no accepted request is lost (acceptance criterion)."""
    factory_calls = []

    def factory():
        factory_calls.append(1)
        # One engine instance would re-crash forever; the shared flaky
        # wrapper crashes exactly once, on the first batch ever executed.
        return flaky

    async def scenario():
        async with serving(service_reference, engine_factory=factory,
                           workers=1) as (server, client):
            responses = await asyncio.gather(
                *(client.align(read) for read in service_reads[:8]))
            assert all(resp["ok"] for resp in responses)
            assert all(resp["sam"] for resp in responses)
            snap = server.metrics.snapshot()
            assert snap["counters"]["worker_crashes_total"] >= 1
            assert snap["counters"]["responses_total"] == 8
        assert len(factory_calls) >= 2  # engine was rebuilt after the crash

    flaky = FlakyEngine(AlignmentEngine(service_reference),
                        crash_on_calls=(1,))
    run(scenario())


def test_unencodable_reads_are_bad_requests(service_reference,
                                            service_reads):
    """Reads carrying ``N`` are refused at decode with ``bad_request``
    addressed to their own id: they never reach a worker, so no crash is
    counted, the breaker stays closed and a clean read is served right
    after."""
    async def scenario():
        from repro.genome.reads import Read
        async with serving(service_reference) as (server, client):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            for idx in range(3):
                line = json.dumps({"id": f"n{idx}", "type": "align",
                                   "read_id": f"n{idx}",
                                   "sequence": "ACGT" * 10 + "N"})
                writer.write(line.encode() + b"\n")
            await writer.drain()
            for idx in range(3):
                response = decode_response(
                    (await reader.readline()).decode())
                assert response["id"] == f"n{idx}"
                assert not response["ok"]
                assert response["error"] == "bad_request"
            writer.close()
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.wait_for(
                    client.align(Read(read_id="n3", sequence="ACGTN")), 5)
            assert excinfo.value.code == "bad_request"
            assert "sam" in await client.align(service_reads[0])
            counters = server.metrics.snapshot()["counters"]
            assert counters["bad_requests_total"] == 4
            assert counters.get("worker_crashes_total", 0) == 0
            assert counters.get("breaker_opens_total", 0) == 0
            assert server.breaker.state == "closed"
    run(scenario())


def test_poisoned_request_fails_alone(service_reference, service_reads):
    """When replays keep failing, isolation fails only the poisoned
    request; its batchmates still succeed."""
    class PoisonableEngine:
        def __init__(self):
            self.inner = AlignmentEngine(service_reference)

        def execute(self, requests):
            if any(req.reads[0].read_id == "poison" for req in requests):
                raise RuntimeError("boom")
            return self.inner.execute(requests)

    async def scenario():
        from repro.genome.reads import Read
        poison = Read(read_id="poison", sequence="ACGT" * 10)
        async with serving(service_reference,
                           engine_factory=PoisonableEngine,
                           workers=1, max_retries=1) as (server, client):
            tasks = [asyncio.ensure_future(client.align(read))
                     for read in service_reads[:4]]
            tasks.append(asyncio.ensure_future(client.align(poison)))
            outcomes = await asyncio.gather(*tasks,
                                            return_exceptions=True)
            good = [o for o in outcomes if isinstance(o, dict)]
            bad = [o for o in outcomes if isinstance(o, ServiceError)]
            assert len(good) == 4
            assert len(bad) == 1 and bad[0].code == "internal"
            assert server.metrics.snapshot()["counters"][
                "poisoned_requests_total"] == 1
    run(scenario())


def test_graceful_shutdown_drains_queue(service_reference, service_reads):
    """shutdown(drain=True) answers every accepted request first."""
    async def scenario():
        factory = (lambda: SlowEngine(AlignmentEngine(service_reference),
                                      delay_s=0.05))
        server = AlignmentServer(
            service_reference,
            config=ServerConfig(port=0, stats_interval_s=0, workers=1,
                                max_batch=4),
            engine_factory=factory)
        await server.start()
        client = await AsyncServiceClient.connect("127.0.0.1", server.port)
        tasks = [asyncio.ensure_future(client.align(read))
                 for read in service_reads[:12]]
        # Wait until the server has admitted everything, then drain.
        while server.metrics.counter("align_requests_total").value < 12:
            await asyncio.sleep(0.01)
        await server.shutdown(drain=True)
        responses = await asyncio.gather(*tasks)
        assert len(responses) == 12
        assert all(resp["ok"] for resp in responses)
        assert server.metrics.snapshot()["counters"][
            "responses_total"] == 12
        await client.close()
    run(scenario())


def test_non_drain_shutdown_fails_fast(service_reference, service_reads):
    async def scenario():
        factory = (lambda: SlowEngine(AlignmentEngine(service_reference),
                                      delay_s=0.2))
        server = AlignmentServer(
            service_reference,
            config=ServerConfig(port=0, stats_interval_s=0, workers=1,
                                max_batch=1),
            engine_factory=factory)
        await server.start()
        client = await AsyncServiceClient.connect("127.0.0.1", server.port)
        tasks = [asyncio.ensure_future(client.align(read))
                 for read in service_reads[:6]]
        while server.metrics.counter("align_requests_total").value < 6:
            await asyncio.sleep(0.01)
        await server.shutdown(drain=False)
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        # The in-flight batch may finish; queued work fails fast.
        failed = [o for o in outcomes if isinstance(o, ServiceError)
                  and o.code == "shutting_down"]
        assert failed, "queued requests should be failed, not executed"
        assert all(isinstance(o, (dict, ServiceError)) for o in outcomes)
        await client.close()
    run(scenario())


def test_unix_socket_serving(tmp_path, service_reference, service_reads):
    # serving() assumes TCP; drive the UNIX path explicitly instead.
    async def unix_scenario():
        path = str(tmp_path / "align.sock")
        server = AlignmentServer(
            service_reference,
            config=ServerConfig(unix_path=path, stats_interval_s=0))
        await server.start()
        assert server.endpoint == f"unix:{path}"
        client = await AsyncServiceClient.connect(unix_path=path)
        response = await client.align(service_reads[0])
        assert response["ok"] and response["sam"]
        await client.close()
        await server.shutdown(drain=True)

    run(unix_scenario())


def test_idempotent_retry_answered_from_cache(service_reference,
                                              service_reads):
    """The same idempotency key twice returns the same payload without
    recomputation — the dedup that makes client retries exactly-once."""
    async def scenario():
        async with serving(service_reference) as (server, client):
            first = await client.align(service_reads[0],
                                       idempotency_key="retry-key-1")
            second = await client.align(service_reads[0],
                                        idempotency_key="retry-key-1")
            assert second["sam"] == first["sam"]
            snap = server.metrics.snapshot()
            assert snap["counters"]["idempotent_hits_total"] == 1
            # Only the first request ever reached the batcher.
            assert server.stats_payload()["batcher"][
                "dispatched_items"] == 1
    run(scenario())


def test_breaker_sheds_with_busy_and_recovers(service_reference,
                                              service_reads):
    """Past the crash threshold the server degrades to `busy` shedding
    instead of queueing onto a dying engine pool, then recovers."""
    class DoomedEngine:
        def execute(self, requests):
            raise RuntimeError("engine is on fire")

    async def scenario():
        async with serving(service_reference, engine_factory=DoomedEngine,
                           workers=1, max_retries=0, breaker_threshold=1,
                           breaker_cooldown_s=30.0) as (server, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.align(service_reads[0])
            assert excinfo.value.code == "internal"
            assert server.breaker.state == "open"
            with pytest.raises(ServiceError) as excinfo:
                await client.align(service_reads[1])
            assert excinfo.value.code == "busy"
            snap = server.metrics.snapshot()
            assert snap["counters"]["shed_total"] == 1
            assert snap["counters"]["breaker_opens_total"] == 1
            assert snap["gauges"]["breaker_state"] == 2
            assert server.stats_payload()["breaker"]["state"] == "open"
            # Control traffic is never shed — the server stays
            # observable while degraded.
            assert await client.ping()

    run(scenario())
