"""The service client's connection lifecycle against scripted servers.

A scripted server misbehaves on its first connection (hangs up, or
answers with a line the client cannot decode) and answers pings
properly on every later one, so each test can check both halves of the
contract: the failure surfaces as a prompt ``ConnectionError``, and the
next call on the same client redials instead of waiting forever.
"""

import asyncio
import contextlib
import json

import pytest

from repro.service.client import AsyncServiceClient
from repro.service.protocol import (
    MAX_LINE_BYTES,
    encode_align,
    encode_align_pair,
    success_response,
)
from tests.service.helpers import run


@contextlib.asynccontextmanager
async def scripted_server(first_connection):
    """Serve ``first_connection(reader, writer)`` once, then answer every
    request with ``ok`` (``pong`` for pings); yields ``(endpoint, lines)``
    with every request line received, in order."""
    lines = []
    connections = []

    async def handle(reader, writer):
        connections.append(asyncio.current_task())
        try:
            if len(connections) == 1:
                await first_connection(reader, writer)
                return
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                lines.append(raw.decode().rstrip("\n"))
                request = json.loads(raw)
                payload = ({"pong": True} if request["type"] == "ping"
                           else {"sam": []})
                writer.write(success_response(request["id"], **payload)
                             .encode() + b"\n")
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        yield f"127.0.0.1:{port}", lines
    finally:
        server.close()
        # Every handler ends once the client has closed its side.
        await asyncio.wait(connections, timeout=5.0)
        await server.wait_closed()


async def hang_up(reader, writer):
    await reader.readline()


async def half_close(reader, writer):
    await reader.readline()
    writer.write_eof()
    await reader.read()  # until the client drops its side


@pytest.mark.parametrize("first_connection", [hang_up, half_close],
                         ids=["close", "half_close"])
def test_call_after_hangup_redials(first_connection):
    """Regression: once the server hung up, the next call used to wait
    forever on a future no read loop would ever complete."""
    async def scenario():
        async with scripted_server(first_connection) as (endpoint, _):
            client = await AsyncServiceClient.connect_endpoint(endpoint)
            try:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.ping(), 1.0)
                await asyncio.sleep(0.2)
                assert await asyncio.wait_for(client.ping(), 1.0)
                assert client.reconnects == 2
            finally:
                await client.close()

    run(scenario())


def test_concurrent_calls_share_one_redial():
    """Callers that find the connection dead converge on one redial."""
    async def scenario():
        async with scripted_server(hang_up) as (endpoint, lines):
            client = await AsyncServiceClient.connect_endpoint(endpoint)
            try:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.ping(), 1.0)
                before = client.reconnects
                pongs = await asyncio.wait_for(
                    asyncio.gather(*(client.ping() for _ in range(8))), 2.0)
                assert pongs == [True] * 8
                assert client.reconnects == before + 1
                assert len(lines) == 8
            finally:
                await client.close()

    run(scenario())


@pytest.mark.parametrize("bad_line", [
    b"\xff\xfe not utf-8\n",
    b"x" * (MAX_LINE_BYTES + 1) + b"\n",
], ids=["non_utf8", "overlong"])
def test_undecodable_response_fails_pending_and_closes(bad_line):
    """An undecodable line fails the waiting request with a labelled
    ConnectionError, close() returns normally, and the client redials."""
    async def answer_garbage(reader, writer):
        await reader.readline()
        writer.write(bad_line)
        await writer.drain()
        await reader.read()

    async def scenario():
        async with scripted_server(answer_garbage) as (endpoint, _):
            client = await AsyncServiceClient.connect_endpoint(endpoint)
            try:
                with pytest.raises(ConnectionError,
                                   match="undecodable response line"):
                    await asyncio.wait_for(client.ping(), 5.0)
                assert await asyncio.wait_for(client.ping(), 1.0)
            finally:
                await client.close()

    run(scenario())


def test_plain_client_request_lines_carry_no_key(service_reads):
    """Without a retry policy the wire lines are the plain encodings:
    sequential ids, no idempotency key."""
    read, mate1, mate2 = service_reads[:3]

    async def scenario():
        async with scripted_server(hang_up) as (endpoint, lines):
            client = await AsyncServiceClient.connect_endpoint(endpoint)
            try:
                with pytest.raises(ConnectionError):
                    await client.ping()
                await asyncio.wait_for(client.align(read, budget_ms=50.0),
                                       1.0)
                await asyncio.wait_for(
                    client.align_pair(mate1, mate2, pair_id="p"), 1.0)
            finally:
                await client.close()
            return lines

    lines = run(scenario())
    assert lines == [
        encode_align("2", read, budget_ms=50.0),
        encode_align_pair("3", mate1, mate2, pair_id="p"),
    ]
    assert all('"idem"' not in line for line in lines)
