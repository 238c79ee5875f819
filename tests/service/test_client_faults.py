"""Client behaviour under injected faults: retries, disconnects,
duplicated replies, and bounded-queue backpressure.

The misbehaving peers are scripted ``asyncio`` servers speaking just
enough of the wire protocol to reach the fault under test — the client
must turn each into a precise, typed failure rather than hanging or
silently desynchronising.
"""

import asyncio
import random
import socket

import pytest

from repro.core.errors import ReproError
from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, ServiceUnavailable, SpecRegistry


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _stub_server(handler):
    """Start a scripted server; returns (server, port)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestRetryAccounting:
    def test_failed_connect_counts_every_attempt(self):
        port = _free_port()  # nothing listens here

        async def run():
            with use_registry() as registry:
                client = MonitorClient(
                    "127.0.0.1",
                    port,
                    connect_retries=3,
                    backoff_base=0.001,
                    backoff_cap=0.002,
                    rng=random.Random(0),
                )
                with pytest.raises(ServiceUnavailable):
                    await client.connect()
                assert client.connect_attempts == 4
                snapshot = registry.snapshot()
            assert snapshot["repro_client_connect_retries_total"][""] == 3

        asyncio.run(run())

    def test_late_server_still_counts_retries(self, cast):
        registry_specs = SpecRegistry([cast.write()])
        port = _free_port()

        async def run():
            with use_registry() as registry:
                client = MonitorClient(
                    "127.0.0.1",
                    port,
                    spec="Write",
                    connect_retries=8,
                    backoff_base=0.05,
                    backoff_cap=0.2,
                    rng=random.Random(3),
                )

                async def late_server():
                    await asyncio.sleep(0.1)
                    server = MonitorServer(registry_specs, port=port)
                    await server.start()
                    return server

                server_task = asyncio.create_task(late_server())
                await client.connect()
                attempts = client.connect_attempts
                await client.close()
                await (await server_task).stop()
                retried = registry.snapshot()[
                    "repro_client_connect_retries_total"
                ][""]
            assert attempts > 1
            assert retried == attempts - 1

        asyncio.run(run())

    def test_first_try_success_touches_no_counter(self, cast):
        registry_specs = SpecRegistry([cast.write()])

        async def run():
            with use_registry() as registry:
                async with MonitorServer(registry_specs) as server:
                    async with MonitorClient(
                        "127.0.0.1", server.port
                    ) as client:
                        assert client.connect_attempts == 1
                return registry.snapshot()

        snapshot = asyncio.run(run())
        assert "repro_client_connect_retries_total" not in snapshot


class TestDisconnects:
    def test_server_closing_after_hello_breaks_sync(self):
        async def handler(reader, writer):
            await reader.readline()  # HELLO
            writer.write(b"OK hello specs=Write\n")
            await writer.drain()
            writer.close()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            await client.connect()
            with pytest.raises(ConnectionError, match="closed"):
                await client.status()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_connection_reset_mid_trace_surfaces(self):
        async def handler(reader, writer):
            await reader.readline()  # HELLO
            writer.write(b"OK hello specs=Write\n")
            await writer.drain()
            await reader.readline()  # first EVENT
            writer.close()  # hang up without a word

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            await client.connect()
            with pytest.raises((ConnectionError, ReproError)):
                for i in range(5000):
                    await client.send_event(f"x{i} -> o : PING")
                await client.status()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())


class TestDuplicatedReplies:
    def test_duplicated_hello_reply_desyncs_next_verb(self):
        # A peer that answers HELLO twice leaves a stale line in the
        # stream; the next STATUS must fail loudly, not return nonsense.
        async def handler(reader, writer):
            await reader.readline()  # HELLO
            writer.write(b"OK hello specs=Write\nOK hello specs=Write\n")
            await writer.drain()
            await reader.readline()  # STATUS (answered by the stale line)
            writer.close()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            await client.connect()
            with pytest.raises(ReproError, match="malformed status reply"):
                await client.status()
            await client.close()
            server.close()

        asyncio.run(run())

    def test_garbage_reply_rejected(self):
        async def handler(reader, writer):
            await reader.readline()
            writer.write(b"BANANA\n")
            await writer.drain()
            writer.close()

        async def run():
            server, port = await _stub_server(handler)
            client = MonitorClient("127.0.0.1", port, connect_retries=0)
            with pytest.raises(ReproError, match="malformed reply"):
                await client.connect()
            await client.close()
            server.close()

        asyncio.run(run())


class TestBackpressure:
    def test_send_blocks_when_queue_full(self):
        # With no sender draining, the bounded queue must make the
        # producer wait (backpressure), never drop or grow unbounded.
        async def run():
            client = MonitorClient("127.0.0.1", 1, queue_size=2)
            await client.send_event("a -> o : M")
            await client.send_event("a -> o : M")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    client.send_event("a -> o : M"), timeout=0.05
                )
            assert client._queue.qsize() == 2

        asyncio.run(run())

    def test_slow_reader_throttles_but_loses_nothing(self, cast):
        # The server checks every event the client pushed through a
        # tiny queue — end-to-end conservation.
        registry = SpecRegistry([cast.write()])

        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write", queue_size=1
                ) as client:
                    for i in range(300):
                        await client.send_event(f"w{i % 5} -> o : NOISE")
                    return await client.status()

        status = asyncio.run(run())
        assert status.events == 300 and status.skipped == 300

    def test_events_sent_counter_tracks_queue_puts(self):
        async def run():
            client = MonitorClient("127.0.0.1", 1, queue_size=8)
            for _ in range(5):
                await client.send_event("a -> o : M")
            assert client.events_sent == 5

        asyncio.run(run())
