"""Gateway behavior against in-process backends: routing, failover,
breaker-driven routability, scatter/gather, idempotency."""

import asyncio
import contextlib
import json
import time

from repro.cluster.gateway import ClusterGateway, GatewayConfig
from repro.cluster.ring import HashRing
from repro.cluster.topology import ClusterTopology, shard_reference
from repro.service.client import AsyncServiceClient
from repro.service.engine import AlignmentEngine
from repro.service.protocol import encode_align
from repro.service.server import AlignmentServer, ServerConfig
from tests.cluster.helpers import async_wait_until
from tests.service.helpers import run


class SlowEngine:
    """Delays every batch so in-flight calls are slow and deterministic."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s

    def execute(self, requests):
        time.sleep(self.delay_s)
        return self.inner.execute(requests)


@contextlib.asynccontextmanager
async def cluster(reference, shards=1, replicas=2, engine_factories=None,
                  server_overrides=None, **gateway_overrides):
    """Backends as in-process AlignmentServers + a started gateway +
    a client connected to the gateway's front door.

    ``server_overrides`` are extra :class:`ServerConfig` knobs for every
    backend (e.g. a small ``queue_depth``)."""
    topo = ClusterTopology(shards=shards, replicas=replicas)
    servers = {}
    for spec in topo.backends:
        ref = (reference if shards == 1
               else shard_reference(reference, shards, spec.shard))
        factory = (engine_factories or {}).get(spec.backend_id)
        server = AlignmentServer(
            ref, config=ServerConfig(port=0, stats_interval_s=0.0,
                                     workers=1, **(server_overrides or {})),
            engine_factory=factory)
        await server.start()
        servers[spec.backend_id] = server
    topo = topo.with_endpoints({bid: f"127.0.0.1:{server.port}"
                                for bid, server in servers.items()})
    overrides = {"port": 0, "health_interval_s": 0.0}
    overrides.update(gateway_overrides)
    gateway = ClusterGateway(topo, config=GatewayConfig(**overrides))
    await gateway.start()
    client = await AsyncServiceClient.connect("127.0.0.1", gateway.port)
    try:
        yield gateway, servers, client
    finally:
        await client.close()
        await gateway.shutdown()
        for server in servers.values():
            await server.shutdown(drain=True)


def counters(gateway):
    return gateway.metrics.snapshot()["counters"]


def gauges(gateway):
    return gateway.metrics.snapshot()["gauges"]


async def single_server_sam(reference, reads):
    """What one full-reference server answers — the cluster's truth."""
    server = AlignmentServer(reference, config=ServerConfig(
        port=0, stats_interval_s=0.0, workers=1))
    await server.start()
    client = await AsyncServiceClient.connect("127.0.0.1", server.port)
    try:
        return {read.read_id: (await client.align(read))["sam"]
                for read in reads}
    finally:
        await client.close()
        await server.shutdown(drain=True)


def test_replicated_routing_and_protocol(cluster_reference, cluster_reads):
    async def scenario():
        truth = await single_server_sam(cluster_reference, cluster_reads)
        async with cluster(cluster_reference, replicas=2) as \
                (gateway, servers, client):
            assert await client.ping()
            for read in cluster_reads:
                assert (await client.align(read))["sam"] == \
                    truth[read.read_id]
            snap = counters(gateway)
            assert snap["responses_total"] == len(cluster_reads)
            # Consistent hashing spread work over both replicas.
            assert snap["backend_s0r0_requests_total"] > 0
            assert snap["backend_s0r1_requests_total"] > 0
            stats = await client.stats()
            assert stats["topology"]["replicas"] == 2
            assert set(stats["backends"]) == {"s0r0", "s0r1"}
            assert "cluster_metrics" in stats
            # The backend clients' per-request meta stays inside the
            # gateway: its wire responses are payload plus framing.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            try:
                writer.write(encode_align("raw", cluster_reads[0])
                             .encode() + b"\n")
                raw = json.loads(await reader.readline())
            finally:
                writer.close()
            assert raw["ok"] and "meta" not in raw
    run(scenario())


def test_failover_when_backend_dies(cluster_reference, cluster_reads):
    async def scenario():
        truth = await single_server_sam(cluster_reference, cluster_reads)
        async with cluster(cluster_reference, replicas=2) as \
                (gateway, servers, client):
            ring = HashRing(["s0r0", "s0r1"])
            # Kill whichever replica is primary for the first read; the
            # gateway must fail the call over to the survivor.
            victim = ring.route(cluster_reads[0].read_id)
            await servers[victim].shutdown(drain=False)
            for read in cluster_reads:
                assert (await client.align(read))["sam"] == \
                    truth[read.read_id]
            snap = counters(gateway)
            assert snap["failovers_total"] > 0
            assert snap["responses_total"] == len(cluster_reads)
    run(scenario())


def test_health_pings_alone_open_and_close_the_breaker(
        cluster_reference, cluster_reads):
    """No request traffic and no supervisor: missed pings open a dead
    backend's breaker, requests then go to the survivor only, and the
    first pong after the cooldown, once it is back, closes it again."""
    async def scenario():
        async with cluster(cluster_reference, replicas=2,
                           health_interval_s=0.05, health_timeout_s=0.5,
                           breaker_threshold=2,
                           breaker_cooldown_s=1.0) as \
                (gateway, servers, client):
            port = servers["s0r1"].port
            await servers["s0r1"].shutdown(drain=False)

            async def wait_breaker(code):
                await async_wait_until(
                    lambda: gauges(gateway)["backend_s0r1_breaker_state"]
                    == code,
                    message=lambda: (f"s0r1 breaker never reached "
                                     f"{code}: {gauges(gateway)}"))

            await wait_breaker(2)
            assert counters(gateway)["backend_breaker_opens_total"] == 1
            assert gateway.handles["s0r1"].breaker.state == "open"
            for read in cluster_reads[:4]:
                assert "sam" in await client.align(read)
            assert counters(gateway).get("backend_s0r1_requests_total",
                                         0) == 0
            # Revive the backend on its old endpoint: a ping after the
            # cooldown is the half-open probe, and its pong closes it.
            servers["s0r1"] = AlignmentServer(
                cluster_reference, config=ServerConfig(
                    port=port, stats_interval_s=0.0, workers=1))
            await servers["s0r1"].start()
            await wait_breaker(0)
            for read in cluster_reads:
                assert "sam" in await client.align(read)
            assert counters(gateway)["backend_s0r1_requests_total"] > 0
    run(scenario())


def test_failover_from_shedding_primary_and_replay_from_cache(
        cluster_reference, cluster_reads):
    """A slow but healthy primary gets the only backend call; once it
    sheds, the request fails over to the next replica, and a client
    retry is answered from the gateway's idempotency cache."""
    async def scenario():
        read = cluster_reads[0]
        primary, other = HashRing(["s0r0", "s0r1"]).preference(read.read_id)
        slow = {primary: (lambda: SlowEngine(
            AlignmentEngine(cluster_reference), 0.3))}
        async with cluster(cluster_reference, replicas=2,
                           engine_factories=slow) as \
                (gateway, servers, client):
            started = time.monotonic()
            first = await client.align(read, idempotency_key="k1")
            assert time.monotonic() - started >= 0.3
            snap = counters(gateway)
            assert snap[f"backend_{primary}_requests_total"] == 1
            assert snap.get(f"backend_{other}_requests_total", 0) == 0
            assert snap.get("failovers_total", 0) == 0
            # Trip the primary's breaker: it now sheds with `busy`.
            backend = servers[primary]
            for _ in range(backend.config.breaker_threshold):
                backend.breaker.record_failure()
            response = await client.align(read, idempotency_key="k2")
            assert response["sam"] == first["sam"]
            snap = counters(gateway)
            assert snap["failovers_total"] == 1
            assert snap[f"backend_{primary}_errors_total"] == 1
            assert snap[f"backend_{other}_requests_total"] == 1
            assert snap["responses_total"] == 2
            assert snap.get("idempotent_hits_total", 0) == 0
            # A client retry with the same key hits the gateway's
            # cache and returns the identical payload, with no backend
            # call at all.
            again = await client.align(read, idempotency_key="k2")
            assert again["sam"] == response["sam"]
            snap = counters(gateway)
            assert snap["idempotent_hits_total"] == 1
            assert snap["responses_total"] == 2
            assert snap[f"backend_{other}_requests_total"] == 1
    run(scenario())


def test_sharded_scatter_gather_matches_single_server(
        cluster_reference, cluster_reads):
    async def scenario():
        truth = await single_server_sam(cluster_reference, cluster_reads)
        async with cluster(cluster_reference, shards=2, replicas=1) as \
                (gateway, servers, client):
            for read in cluster_reads:
                assert (await client.align(read))["sam"] == \
                    truth[read.read_id]
            snap = counters(gateway)
            assert snap["scatters_total"] == len(cluster_reads)
            assert snap["backend_s0r0_requests_total"] == \
                len(cluster_reads)
            assert snap["backend_s1r0_requests_total"] == \
                len(cluster_reads)
    run(scenario())


def test_request_ids_do_not_collide_across_connections(
        cluster_reference, cluster_reads):
    """Regression: backend idempotency keys derived from (session,
    request_id) alone replayed one connection's responses to another,
    cross-wiring SAM records between clients."""
    async def scenario():
        async with cluster(cluster_reference, replicas=2) as \
                (gateway, servers, client):
            await client.align(cluster_reads[0])  # request id 1 here
            other = await AsyncServiceClient.connect(
                "127.0.0.1", gateway.port)
            try:
                # First request on a fresh connection reuses id 1; it
                # must get ITS read's alignment, not a cached replay.
                response = await other.align(cluster_reads[1])
            finally:
                await other.close()
            assert response["sam"][0].split("\t")[0] == \
                cluster_reads[1].read_id
    run(scenario())


def test_gateway_pair_alignment(cluster_reference):
    from repro.genome.pairs import PairedReadSimulator

    pairs = PairedReadSimulator(cluster_reference, read_length=80,
                                seed=9).simulate(3)

    async def scenario():
        async with cluster(cluster_reference, replicas=2) as \
                (gateway, servers, client):
            for pair in pairs:
                response = await client.align_pair(pair.mate1, pair.mate2)
                assert len(response["sam"]) == 2
            assert counters(gateway)["pair_requests_total"] == len(pairs)
    run(scenario())


def test_reconcile_adopts_new_endpoint_and_readmits(
        cluster_reference, cluster_reads):
    """A restarted backend on a fresh port rejoins its ring the moment
    reconciliation's probe answers — no health-loop convalescence."""
    async def scenario():
        async with cluster(cluster_reference, replicas=2) as \
                (gateway, servers, client):
            await servers["s0r1"].shutdown(drain=False)
            # Respawn "the replica" on a brand-new port.
            servers["s0r1"] = AlignmentServer(
                cluster_reference, config=ServerConfig(
                    port=0, stats_interval_s=0.0, workers=1))
            await servers["s0r1"].start()
            endpoint = f"127.0.0.1:{servers['s0r1'].port}"
            assert await gateway.reconcile_backend("s0r1", endpoint)
            handle = gateway.handles["s0r1"]
            assert handle.endpoint == endpoint
            assert handle.breaker.state == "closed" and not handle.retired
            snap = counters(gateway)
            assert snap["backend_restarts_total"] == 1
            assert snap["backend_reconciles_total"] == 1
            for read in cluster_reads:
                assert "sam" in await client.align(read)
            assert counters(gateway)["backend_s0r1_requests_total"] > 0
    run(scenario())


def test_failed_reconcile_probe_routes_nothing_until_a_ping_answers(
        cluster_reference, cluster_reads):
    async def scenario():
        async with cluster(cluster_reference, replicas=2,
                           connect_timeout_s=0.5, health_interval_s=0.05,
                           breaker_cooldown_s=1.0) as \
                (gateway, servers, client):
            port = servers["s0r1"].port
            await servers["s0r1"].shutdown(drain=False)
            # The supervisor claims a restart but the probe misses
            # (nothing listens there): the fresh breaker is tripped
            # rather than let the backend take live traffic.
            assert not await gateway.reconcile_backend(
                "s0r1", f"127.0.0.1:{port}")
            assert gateway.handles["s0r1"].breaker.state == "open"
            assert gauges(gateway)["backend_s0r1_breaker_state"] == 2
            assert counters(gateway).get("backend_reconciles_total",
                                         0) == 0
            # Traffic keeps flowing on the survivor meanwhile, and none
            # of it reaches the unprobed backend.
            for read in cluster_reads[:4]:
                assert "sam" in await client.align(read)
            assert counters(gateway).get("backend_s0r1_requests_total",
                                         0) == 0
            # The process comes up: a ping after the cooldown answers,
            # and only then does the backend take requests again.
            servers["s0r1"] = AlignmentServer(
                cluster_reference, config=ServerConfig(
                    port=port, stats_interval_s=0.0, workers=1))
            await servers["s0r1"].start()
            await async_wait_until(
                lambda: gateway.handles["s0r1"].breaker.state == "closed",
                message="no ping closed the tripped breaker")
            for read in cluster_reads:
                assert "sam" in await client.align(read)
            assert counters(gateway)["backend_s0r1_requests_total"] > 0
    run(scenario())


def test_retired_backend_is_never_a_candidate(cluster_reference,
                                              cluster_reads):
    """Crash-loop retirement: permanent, alert-counted, and the gateway
    keeps serving on the survivors without wedging."""
    async def scenario():
        async with cluster(cluster_reference, replicas=2,
                           health_interval_s=0.05) as \
                (gateway, servers, client):
            gateway.retire_backend("s0r1", "crash loop (test)")
            handle = gateway.handles["s0r1"]
            assert handle.retired
            snap = counters(gateway)
            assert snap["backend_crash_loop_ejects_total"] == 1
            # Retirement is sticky: neither a later restart event nor
            # the answering backend's pings resurrect it.
            assert not await gateway.reconcile_backend(
                "s0r1", f"127.0.0.1:{servers['s0r1'].port}")
            await asyncio.sleep(0.2)
            assert handle.retired
            for read in cluster_reads:
                assert "sam" in await client.align(read)
            assert counters(gateway).get("backend_s0r1_requests_total",
                                         0) == 0
            stats = await client.stats()
            assert stats["backends"]["s0r1"]["retired"] is True
    run(scenario())


def test_retirement_during_a_reconcile_probe_is_not_undone(
        cluster_reference):
    """The supervisor retires a backend while a reconcile probe of its
    new endpoint is still out: the probe's end must not adopt it."""
    async def scenario():
        silent = []  # accepted connections that are never answered
        hung = await asyncio.start_server(
            lambda reader, writer: silent.append(writer), "127.0.0.1", 0)
        hung_endpoint = f"127.0.0.1:{hung.sockets[0].getsockname()[1]}"
        try:
            async with cluster(cluster_reference, replicas=2,
                               connect_timeout_s=0.3,
                               health_timeout_s=0.3) as \
                    (gateway, servers, client):
                handle = gateway.handles["s0r1"]
                endpoint = handle.endpoint
                probe = asyncio.ensure_future(
                    gateway.reconcile_backend("s0r1", hung_endpoint))
                await async_wait_until(lambda: silent,
                                       message="the probe never dialled")
                gateway.retire_backend("s0r1", "crash loop (test)")
                assert not await probe
                assert handle.retired and handle.endpoint == endpoint
        finally:
            hung.close()
            for writer in silent:
                writer.close()
    run(scenario())


def test_failover_when_primary_restarts_mid_call(
        cluster_reference, cluster_reads):
    """Regression: the supervisor reconciles a replica onto a new
    endpoint while a request is in flight on it.  The dropped call must
    fail over to the next replica, answer exactly once, and leave
    nothing behind when the old process's batch finally finishes."""
    async def scenario():
        read = cluster_reads[0]
        primary, other = HashRing(["s0r0", "s0r1"]).preference(read.read_id)
        slow = {primary: (lambda: SlowEngine(
            AlignmentEngine(cluster_reference), 1.0))}
        async with cluster(cluster_reference, replicas=2,
                           engine_factories=slow) as \
                (gateway, servers, client):
            old = servers[primary]
            call = asyncio.ensure_future(
                client.align(read, idempotency_key="race"))
            await async_wait_until(
                lambda: old.metrics.counter("align_requests_total").value,
                message="the call never reached the primary")
            # The batch is cooking inside the slow engine.  Restart the
            # replica on a fresh port and reconcile the gateway onto it.
            servers[primary] = AlignmentServer(
                cluster_reference, config=ServerConfig(
                    port=0, stats_interval_s=0.0, workers=1))
            await servers[primary].start()
            assert await gateway.reconcile_backend(
                primary, f"127.0.0.1:{servers[primary].port}")
            response = await call
            assert "sam" in response
            snap = counters(gateway)
            assert snap["failovers_total"] == 1
            assert snap[f"backend_{other}_requests_total"] == 1
            # Let the old process finish its batch and go away: its
            # late answer must not surface anywhere.
            await old.shutdown(drain=False)
            snap = counters(gateway)
            assert snap["responses_total"] == 1
            assert snap.get("idempotent_hits_total", 0) == 0
            # The restarted backend serves new traffic, and the cached
            # idempotent response is intact.
            for r in cluster_reads[:4]:
                assert "sam" in await client.align(r)
            again = await client.align(read, idempotency_key="race")
            assert again["sam"] == response["sam"]
            assert counters(gateway)["idempotent_hits_total"] == 1
    run(scenario())


def test_gateway_config_validation():
    import pytest

    with pytest.raises(ValueError):
        GatewayConfig(default_budget_ms=-1.0)
    with pytest.raises(ValueError):
        GatewayConfig(request_timeout_s=-1.0)
    with pytest.raises(ValueError):
        GatewayConfig(idempotency_capacity=0)
