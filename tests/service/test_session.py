"""Protocol hygiene of the shared NDJSON session layer, checked on both
front ends that run it: the single server and the cluster gateway."""

import asyncio
import contextlib
import json

import pytest

from repro.service.engine import AlignmentEngine
from repro.service.protocol import MAX_LINE_BYTES, encode_align, encode_control
from tests.cluster.helpers import async_wait_until
from tests.cluster.test_gateway import SlowEngine, cluster
from tests.service.helpers import run, serving


@contextlib.asynccontextmanager
async def front_end(kind, reference, engine_factory):
    """A started server, or a gateway over one backend, whose engines
    come from ``engine_factory``."""
    if kind == "server":
        async with serving(reference, engine_factory=engine_factory,
                           workers=1) as (server, _client):
            yield server
    else:
        async with cluster(reference, replicas=1,
                           engine_factories={"s0r0": engine_factory}) as \
                (gateway, _servers, _client):
            yield gateway


async def read_json(reader):
    return json.loads(await reader.readline())


@pytest.mark.parametrize("kind", ["server", "gateway"])
def test_protocol_hygiene(kind, service_reference, service_reads):
    def factory():
        return SlowEngine(AlignmentEngine(service_reference), 0.2)

    async def scenario():
        async with front_end(kind, service_reference, factory) as front:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port)

            # A malformed line gets bad_request; blank lines get nothing;
            # the same connection still answers ping.
            writer.write(b"this is not json\n\n   \n"
                         + encode_control("p1", "ping").encode() + b"\n")
            bad = await read_json(reader)
            assert bad["ok"] is False and bad["error"] == "bad_request"
            assert await read_json(reader) == {"id": "p1", "ok": True,
                                               "pong": True}
            assert front.metrics.counter("requests_total").value == 2

            # json.loads parses NaN, Infinity and 1e400 (inf): each is a
            # bad_request, and the connection still answers ping.
            for idx, value in enumerate(("NaN", "Infinity", "1e400")):
                line = (encode_align(f"nf{idx}", service_reads[0])[:-1]
                        + f',"budget_ms":{value}}}\n')
                writer.write(line.encode()
                             + encode_control(f"p{idx + 2}", "ping")
                             .encode() + b"\n")
                bad = await read_json(reader)
                assert bad["ok"] is False and bad["error"] == "bad_request"
                assert "budget_ms" in bad["message"]
                assert await read_json(reader) == {
                    "id": f"p{idx + 2}", "ok": True, "pong": True}

            # An idempotent replay is byte-identical to the original.
            line = encode_align("a1", service_reads[0],
                                idempotency_key="idem-1").encode() + b"\n"
            writer.write(line)
            first = await reader.readline()
            writer.write(line)
            assert await reader.readline() == first
            assert json.loads(first)["sam"]
            assert front.metrics.counter(
                "idempotent_hits_total").value == 1

            # An oversize line gets bad_request, then the connection
            # closes.
            big_reader, big_writer = await asyncio.open_connection(
                "127.0.0.1", front.port)
            big_writer.write(b"A" * (MAX_LINE_BYTES + 1) + b"\n")
            oversize = await read_json(big_reader)
            assert oversize["error"] == "bad_request"
            assert "too long" in oversize["message"]
            try:
                assert await big_reader.readline() == b""
            except ConnectionResetError:
                pass  # closed with our tail unread: also a hangup
            big_writer.close()

            # During a drain, in-flight work completes but a new align
            # gets shutting_down.
            writer.write(encode_align("a2", service_reads[1]).encode()
                         + b"\n")
            await async_wait_until(
                lambda: front.metrics.gauge("in_flight").value == 1)
            drain = asyncio.ensure_future(front.shutdown())
            await async_wait_until(lambda: front._shutting_down)
            writer.write(encode_align("a3", service_reads[2]).encode()
                         + b"\n")
            replies = {}
            while len(replies) < 2:
                reply = await read_json(reader)
                replies[reply["id"]] = reply
            assert replies["a2"]["ok"] is True
            assert replies["a3"]["error"] == "shutting_down"
            await drain
            writer.close()

    run(scenario())
