"""The one admission queue on a request's path, and typed shedding
through the gateway.

The backend's :class:`~repro.service.batcher.DynamicBatcher` is the only
admission queue, gateway or not.  The unit half drives it directly on
one event loop with an injectable clock; the integration half pushes
real requests through a gateway whose backends run one worker, one
request per batch and a tiny queue, and asserts the two shed flavors
stay distinct on the wire: ``overloaded`` (queue full) vs
``queue_timeout`` (budget spent).  The last half puts stub backends
behind the gateway to check what it sends them: the remaining budget
on every attempt, and budget-less lines unchanged.
"""

import asyncio
import contextlib
import json

import pytest

from repro.cluster.gateway import ClusterGateway, GatewayConfig
from repro.cluster.ring import HashRing
from repro.cluster.topology import ClusterTopology
from repro.service.batcher import (
    DynamicBatcher,
    QueueTimeoutShed,
    ServiceOverloadedError,
)
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.engine import AlignmentEngine
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    ERR_OVERLOADED,
    ERR_QUEUE_TIMEOUT,
    encode_align,
)
from repro.service.server import ServerConfig
from tests.cluster.helpers import async_wait_until
from tests.cluster.test_gateway import SlowEngine, cluster, counters, gauges
from tests.service.helpers import run


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_batcher(max_batch=8, depth=4, clock=None):
    return DynamicBatcher(max_batch=max_batch, max_wait_s=0.0,
                          queue_depth=depth, metrics=MetricsRegistry(),
                          clock=clock or FakeClock())


def requests_of(batch):
    return [item.request for item in batch]


class TestAdmissionQueueUnit:
    def test_admits_up_to_concurrency_then_queues(self):
        """A batch takes at most ``max_batch`` items; the rest wait in
        FIFO order and join the next batch."""
        async def scenario():
            batcher = make_batcher(max_batch=2)
            for i in range(3):
                batcher.submit(i)
            assert requests_of(await batcher.next_batch()) == [0, 1]
            assert batcher.depth == 1
            assert requests_of(await batcher.next_batch()) == [2]
            assert batcher.depth == 0
        run(scenario())

    def test_queue_full_sheds_immediately(self):
        async def scenario():
            batcher = make_batcher(depth=1)
            batcher.submit("waiting")
            with pytest.raises(ServiceOverloadedError) as err:
                batcher.submit("shed")
            assert err.value.code == ERR_OVERLOADED
            assert requests_of(await batcher.next_batch()) == ["waiting"]
            batcher.submit("admitted")  # dequeueing freed the slot
        run(scenario())

    def test_depth_zero_never_queues(self):
        """A zero-depth queue is refused outright, at the batcher and at
        the server config that sizes it: every backend admits through a
        queue of at least one slot."""
        with pytest.raises(ValueError):
            make_batcher(depth=0)
        with pytest.raises(ValueError):
            ServerConfig(queue_depth=0)

    def test_spent_budget_sheds_before_admission(self):
        async def scenario():
            clock = FakeClock()
            batcher = make_batcher(clock=clock)
            with pytest.raises(QueueTimeoutShed) as err:
                batcher.submit("late", deadline=clock.now)
            assert err.value.code == ERR_QUEUE_TIMEOUT
            assert batcher.depth == 0
            assert batcher.stats.expired == 1
            assert batcher.stats.submitted == 0
            assert batcher.metrics.snapshot()["counters"][
                "shed_queue_timeout_total"] == 1
        run(scenario())

    def test_budget_expires_while_waiting(self):
        """With no consumer, a queued item is shed at its deadline, not
        before, and leaves no residue in the queue."""
        async def scenario():
            clock = FakeClock()
            batcher = make_batcher(clock=clock)
            loop = asyncio.get_running_loop()
            started = loop.time()
            doomed = batcher.submit("doomed", deadline=clock.now + 0.05)
            await asyncio.sleep(0)
            assert not doomed.done()
            assert batcher.depth == 1
            with pytest.raises(QueueTimeoutShed):
                await asyncio.wait_for(doomed, 1.0)
            assert 0.04 <= loop.time() - started < 1.0
            assert batcher.depth == 0
            assert batcher.stats.expired == 1
            batcher.submit("next")
            assert requests_of(await batcher.next_batch()) == ["next"]
        run(scenario())

    def test_deadline_aware_dequeue_skips_expired_waiter(self):
        """An item found past its deadline at dequeue is never
        dispatched; its batchmates still run."""
        async def scenario():
            clock = FakeClock()
            batcher = make_batcher(clock=clock)
            first = batcher.submit("first")
            expired = batcher.submit("expired", deadline=clock.now + 1.0)
            live = batcher.submit("live")
            # Past the deadline on the batcher's clock before its timer
            # (one real second away) can fire: the dequeue must notice.
            clock.now += 2.0
            batch = await batcher.next_batch()
            assert requests_of(batch) == ["first", "live"]
            with pytest.raises(QueueTimeoutShed):
                await expired
            assert not first.done() and not live.done()
            assert batcher.stats.expired == 1
            assert batcher.stats.dispatched_items == 2
        run(scenario())

    def test_cancelled_waiter_is_skipped_on_release(self):
        async def scenario():
            clock = FakeClock()
            batcher = make_batcher(clock=clock)
            cancelled = batcher.submit("cancelled",
                                       deadline=clock.now + 0.02)
            live = batcher.submit("live")
            cancelled.cancel()
            assert requests_of(await batcher.next_batch()) == ["live"]
            assert batcher.stats.abandoned_items == 1
            # Its deadline timer went with it: nothing expires later.
            await asyncio.sleep(0.05)
            assert batcher.stats.expired == 0
            assert not live.done()
        run(scenario())

    def test_peak_depth_gauge_tracks_high_water_mark(self):
        async def scenario():
            batcher = make_batcher(depth=8)
            for i in range(3):
                batcher.submit(i)
            gauges = batcher.metrics.snapshot()["gauges"]
            assert gauges["queue_depth"] == 3
            assert gauges["queue_depth_peak"] == 3
            await batcher.next_batch()
            gauges = batcher.metrics.snapshot()["gauges"]
            assert gauges["queue_depth"] == 0
            assert gauges["queue_depth_peak"] == 3
            run(scenario())


def one_primary(reads, count):
    """``(backend, reads)``: ``count`` reads whose ring primary is the
    same replica of a two-replica shard."""
    ring = HashRing(["s0r0", "s0r1"])
    groups = {}
    for read in reads:
        groups.setdefault(ring.route(read.read_id), []).append(read)
    primary, group = max(groups.items(), key=lambda kv: len(kv[1]))
    assert len(group) >= count
    return primary, group[:count]


def backend_counters(server):
    return server.metrics.snapshot()["counters"]


ONE_SLOT = {"max_batch": 1, "queue_depth": 4}


class TestGatewayShedding:
    def test_budget_expiry_sheds_queue_timeout(self, cluster_reference,
                                               cluster_reads):
        """A request whose budget runs out in a backend's queue gets the
        *typed* ``queue_timeout`` error through the gateway, not a
        generic busy/timeout, and is not failed over."""
        slow = {bid: (lambda: SlowEngine(
            AlignmentEngine(cluster_reference), 0.5))
            for bid in ("s0r0", "s0r1")}
        primary, (held, budgeted) = one_primary(cluster_reads, 2)

        async def scenario():
            async with cluster(cluster_reference, replicas=2,
                               engine_factories=slow,
                               server_overrides=ONE_SLOT) as \
                    (gateway, servers, client):
                other = await AsyncServiceClient.connect(
                    "127.0.0.1", gateway.port)
                try:
                    # Occupy the primary's single slot with a slow
                    # request, then queue one behind it carrying a
                    # budget far below the slot holder's service time.
                    holder = asyncio.ensure_future(client.align(held))
                    await async_wait_until(lambda: backend_counters(
                        servers[primary]).get("align_requests_total"))
                    with pytest.raises(ServiceError) as err:
                        await other.align(budgeted, budget_ms=100.0)
                    assert err.value.code == ERR_QUEUE_TIMEOUT
                    assert "sam" in await holder
                finally:
                    await other.close()
                snap = counters(gateway)
                assert snap["shed_queue_timeout_total"] == 1
                assert snap.get("shed_queue_full_total", 0) == 0
                assert snap.get("failovers_total", 0) == 0
                assert backend_counters(servers[primary])[
                    "shed_queue_timeout_total"] == 1
        run(scenario())

    def test_queue_full_sheds_overloaded(self, cluster_reference,
                                         cluster_reads):
        """Every replica's queue full: each sheds ``overloaded``, the
        gateway fails over once and answers with the last replica's
        code."""
        slow = {bid: (lambda: SlowEngine(
            AlignmentEngine(cluster_reference), 0.5))
            for bid in ("s0r0", "s0r1")}

        async def scenario():
            async with cluster(cluster_reference, replicas=2,
                               engine_factories=slow,
                               server_overrides={"max_batch": 1,
                                                 "queue_depth": 1}) as \
                    (gateway, servers, client):
                # Fill both backends directly: one request executing and
                # one waiting in each single-slot queue.
                direct, holders = [], []
                reads = iter(cluster_reads)
                try:
                    for server in servers.values():
                        batcher = server._batcher
                        conn = await AsyncServiceClient.connect(
                            "127.0.0.1", server.port)
                        direct.append(conn)
                        holders.append(asyncio.ensure_future(
                            conn.align(next(reads))))
                        await async_wait_until(
                            lambda: batcher.stats.dispatched_items == 1)
                        holders.append(asyncio.ensure_future(
                            conn.align(next(reads))))
                        await async_wait_until(lambda: batcher.depth == 1)
                    with pytest.raises(ServiceError) as err:
                        await client.align(next(reads))
                    assert err.value.code == ERR_OVERLOADED
                    for response in await asyncio.gather(*holders):
                        assert "sam" in response
                finally:
                    for conn in direct:
                        await conn.close()
                snap = counters(gateway)
                assert snap["shed_queue_full_total"] == 1
                assert snap["failovers_total"] == 1
                for server in servers.values():
                    assert backend_counters(server)["rejected_total"] == 1
        run(scenario())

    def test_default_budget_applies_when_request_carries_none(
            self, cluster_reference, cluster_reads):
        slow = {bid: (lambda: SlowEngine(
            AlignmentEngine(cluster_reference), 0.5))
            for bid in ("s0r0", "s0r1")}
        primary, (held, unbudgeted) = one_primary(cluster_reads, 2)

        async def scenario():
            async with cluster(cluster_reference, replicas=2,
                               engine_factories=slow,
                               server_overrides=ONE_SLOT,
                               default_budget_ms=100.0) as \
                    (gateway, servers, client):
                other = await AsyncServiceClient.connect(
                    "127.0.0.1", gateway.port)
                try:
                    # The holder's explicit budget overrides the
                    # default; the queued request carries none, so the
                    # gateway forwards its default budget.
                    holder = asyncio.ensure_future(
                        client.align(held, budget_ms=10_000.0))
                    await async_wait_until(lambda: backend_counters(
                        servers[primary]).get("align_requests_total"))
                    with pytest.raises(ServiceError) as err:
                        await other.align(unbudgeted)  # no budget
                    assert err.value.code == ERR_QUEUE_TIMEOUT
                    assert "sam" in await holder
                finally:
                    await other.close()
                assert backend_counters(servers[primary])[
                    "shed_queue_timeout_total"] == 1
        run(scenario())


class StubBackend:
    """An NDJSON stand-in for a backend: records every align line it
    receives verbatim and answers it with ``reply`` after ``delay_s``
    (``None``: just after the forwarded budget runs out)."""

    def __init__(self, reply, delay_s=0.0):
        self.reply = reply
        self.delay_s = delay_s
        self.lines = []
        self._server = None
        self._writers = set()

    async def start(self):
        self._server = await asyncio.start_server(self._serve,
                                                  "127.0.0.1", 0)
        return f"127.0.0.1:{self._server.sockets[0].getsockname()[1]}"

    async def close(self):
        self._server.close()
        for writer in list(self._writers):
            writer.close()
            await writer.wait_closed()

    async def _serve(self, reader, writer):
        self._writers.add(writer)
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                obj = json.loads(raw)
                if obj["type"] == "ping":
                    response = {"id": obj["id"], "ok": True, "pong": True}
                else:
                    self.lines.append(raw.decode().rstrip("\n"))
                    delay_s = self.delay_s
                    if delay_s is None:
                        delay_s = obj["budget_ms"] / 1000.0 + 0.002
                    await asyncio.sleep(delay_s)
                    response = dict(self.reply, id=obj["id"])
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            self._writers.discard(writer)
            writer.close()

    def sent(self):
        return [json.loads(line) for line in self.lines]


SERVED = {"ok": True, "sam": ["stub"]}
OVERLOADED = {"ok": False, "error": ERR_OVERLOADED}
BUSY = {"ok": False, "error": "busy"}
QUEUE_TIMEOUT = {"ok": False, "error": ERR_QUEUE_TIMEOUT}


@contextlib.asynccontextmanager
async def stub_cluster(read, primary, secondary, **gateway_overrides):
    """A two-replica gateway whose ring primary for ``read`` is the stub
    ``primary`` and whose failover target is ``secondary``."""
    order = HashRing(["s0r0", "s0r1"]).preference(read.read_id)
    stubs = dict(zip(order, (primary, secondary)))
    endpoints = {bid: await stub.start() for bid, stub in stubs.items()}
    topology = ClusterTopology(shards=1, replicas=2).with_endpoints(
        endpoints)
    config = {"port": 0, "health_interval_s": 0.0}
    config.update(gateway_overrides)
    gateway = ClusterGateway(topology, config=GatewayConfig(**config))
    await gateway.start()
    client = await AsyncServiceClient.connect("127.0.0.1", gateway.port)
    try:
        yield gateway, client
    finally:
        await client.close()
        await gateway.shutdown()
        for stub in stubs.values():
            await stub.close()


class TestGatewayBudgetForwarding:
    def test_budgetless_requests_reach_the_backend_unchanged(
            self, cluster_reads):
        """No budget, no ``budget_ms`` on the gateway→backend wire: the
        line is exactly what a budget-less encode produces.  A budget is
        forwarded as what is left of it."""
        read = cluster_reads[0]
        primary = StubBackend(SERVED)

        async def scenario():
            async with stub_cluster(read, primary,
                                    StubBackend(SERVED)) as (_, client):
                await client.align(read)
                await client.align(read, budget_ms=5000.0)
            plain, budgeted = primary.sent()
            assert primary.lines[0] == encode_align(
                plain["id"], read, idempotency_key=plain["idem"])
            assert 0 < budgeted["budget_ms"] <= 5000.0
        run(scenario())

    def test_remaining_budget_forwarded_on_failover(self, cluster_reads):
        read = cluster_reads[0]
        primary = StubBackend(OVERLOADED, delay_s=0.05)
        secondary = StubBackend(SERVED)

        async def scenario():
            async with stub_cluster(read, primary, secondary) as \
                    (gateway, client):
                assert (await client.align(read, budget_ms=2000.0))["sam"]
                assert counters(gateway)["failovers_total"] == 1
            first = primary.sent()[0]["budget_ms"]
            second = secondary.sent()[0]["budget_ms"]
            assert 0 < second <= first - 40.0 and first <= 2000.0
        run(scenario())

    def test_spent_budget_sheds_at_the_gateway(self, cluster_reads):
        """The primary sheds just after the budget ran out (well inside
        the gateway's grace): the gateway answers ``queue_timeout``
        itself and never sends the failover a spent budget."""
        read = cluster_reads[0]
        secondary = StubBackend(SERVED)

        async def scenario():
            async with stub_cluster(
                    read, StubBackend(OVERLOADED, delay_s=None),
                    secondary) as (gateway, client):
                with pytest.raises(ServiceError) as err:
                    await client.align(read, budget_ms=100.0)
                assert err.value.code == ERR_QUEUE_TIMEOUT
                assert counters(gateway)["shed_queue_timeout_total"] == 1
            assert secondary.lines == []
        run(scenario())

    @pytest.mark.parametrize("first,last,counter", [
        (BUSY, OVERLOADED, "shed_queue_full_total"),
        (OVERLOADED, BUSY, "shed_busy_total"),
    ], ids=["last-overloaded", "last-busy"])
    def test_every_replica_shed_answers_the_last_code(
            self, cluster_reads, first, last, counter):
        read = cluster_reads[0]

        async def scenario():
            async with stub_cluster(read, StubBackend(first),
                                    StubBackend(last)) as (gateway, client):
                with pytest.raises(ServiceError) as err:
                    await client.align(read)
                assert err.value.code == last["error"]
                snap = counters(gateway)
                assert snap[counter] == 1
                assert snap["unroutable_total"] == 1
        run(scenario())


def test_typed_answer_to_a_half_open_probe_closes_the_breaker(
        cluster_reads):
    """A backend that answers the half-open probe with a non-retryable
    shed (here ``queue_timeout``) is alive: the probe is returned, the
    breaker closes, and the next request is routed to it again."""
    read = cluster_reads[0]
    primary = StubBackend(QUEUE_TIMEOUT)

    async def scenario():
        async with stub_cluster(read, primary, StubBackend(SERVED),
                                breaker_cooldown_s=0.05) as \
                (gateway, client):
            handle = gateway.handles[
                HashRing(["s0r0", "s0r1"]).preference(read.read_id)[0]]
            for _ in range(gateway.config.breaker_threshold):
                handle.breaker.record_failure()
            assert handle.breaker.state == "open"
            await asyncio.sleep(0.1)  # cooldown passes: next is a probe
            with pytest.raises(ServiceError) as err:
                await client.align(read, budget_ms=5000.0)
            assert err.value.code == ERR_QUEUE_TIMEOUT
            assert handle.breaker.state == "closed"
            primary.reply = SERVED
            assert (await client.align(read))["sam"] == ["stub"]
            assert len(primary.lines) == 2
            assert counters(gateway).get("failovers_total", 0) == 0
    run(scenario())


@pytest.mark.parametrize("path", ["shed", "refused", "pings"])
def test_breaker_gauge_reads_open_once_the_breaker_opens(cluster_reads,
                                                         path):
    """Regression: the breaker-state gauge read 0 (closed) while the
    breaker was open, because a retryable shed, a connection error and
    a missed ping each recorded the failure without updating the gauge.
    The breaker's own transitions now drive it."""
    read = cluster_reads[0]
    primary = StubBackend(BUSY)
    overrides = {"health_interval_s": 0.02} if path == "pings" else {}

    async def scenario():
        async with stub_cluster(read, primary, StubBackend(SERVED),
                                breaker_threshold=3, **overrides) as \
                (gateway, client):
            bid = HashRing(["s0r0", "s0r1"]).preference(read.read_id)[0]
            breaker = gateway.handles[bid].breaker
            assert gauges(gateway)[f"backend_{bid}_breaker_state"] == 0
            if path != "shed":
                await primary.close()
            if path == "pings":
                await async_wait_until(lambda: breaker.state == "open",
                                       message="pings never opened it")
            else:
                for _ in range(3):
                    assert (await client.align(read))["sam"] == ["stub"]
            assert breaker.state == "open"
            assert gauges(gateway)[f"backend_{bid}_breaker_state"] == 2
            assert counters(gateway)["backend_breaker_opens_total"] == 1
    run(scenario())


def test_unroutable_counts_once_per_scattered_request(cluster_reads):
    """Every shard group of a sharded cluster sheds: the client sees
    the shed once, and ``unroutable_total`` counts the request once."""
    stubs = {"s0r0": StubBackend(OVERLOADED),
             "s1r0": StubBackend(OVERLOADED)}

    async def scenario():
        endpoints = {bid: await stub.start() for bid, stub in stubs.items()}
        topology = ClusterTopology(shards=2, replicas=1).with_endpoints(
            endpoints)
        gateway = ClusterGateway(topology, config=GatewayConfig(
            port=0, health_interval_s=0.0))
        await gateway.start()
        client = await AsyncServiceClient.connect("127.0.0.1", gateway.port)
        try:
            with pytest.raises(ServiceError) as err:
                await client.align(cluster_reads[0])
            assert err.value.code == ERR_OVERLOADED
            snap = counters(gateway)
            assert snap["unroutable_total"] == 1
            assert snap["shed_queue_full_total"] == 1
        finally:
            await client.close()
            await gateway.shutdown()
            for stub in stubs.values():
                await stub.close()
    run(scenario())
