"""End-to-end service tests: concurrent sessions over real sockets.

The acceptance scenario: an in-process asyncio server, ≥ 8 concurrent
client sessions feeding interleaved readers/writers events; the violating
session is flagged at the correct event index, clean sessions report ok,
and the metrics counters account for every event sent.
"""

import asyncio

import pytest

from repro.service import (
    MonitorClient,
    MonitorServer,
    SessionStatus,
    SpecRegistry,
)

WRITER_SCRIPT = [
    "{w} -> o : OW",
    "{w} -> o : W(Data:d1)",
    "{w} -> o : W(Data:d2)",
    "{w} -> o : CW",
    "{w} -> o : UNRELATED",  # outside Write's alphabet: skipped
    "{w} -> o : OW",
    "{w} -> o : W(Data:d1)",
    "{w} -> o : CW",
]

READER_SCRIPT = [
    "{r} -> o : OR",
    "{r} -> o : R(Data:d1)",
    "{r} -> o : R(Data:d2)",
    "{r} -> o : CR",
]

# the second W is issued by an intruder that never opened a session:
# Write's binding operator makes index 2 the violating event
VIOLATING_SCRIPT = [
    "w9 -> o : OW",
    "w9 -> o : W(Data:d1)",
    "intruder -> o : W(Data:d1)",
    "w9 -> o : CW",
]
VIOLATION_INDEX = 2


@pytest.fixture(scope="module")
def registry(cast) -> SpecRegistry:
    return SpecRegistry([cast.write(), cast.read2()])


async def _session(port: int, spec: str, lines: list[str]) -> SessionStatus:
    async with MonitorClient("127.0.0.1", port, spec=spec) as client:
        for line in lines:
            await client.send_event(line)
        return await client.status()


class TestEndToEnd:
    def test_concurrent_interleaved_sessions(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                writers = [
                    _session(
                        server.port,
                        "Write",
                        [l.format(w=f"w{i}") for l in WRITER_SCRIPT],
                    )
                    for i in range(4)
                ]
                readers = [
                    _session(
                        server.port,
                        "Read2",
                        [l.format(r=f"r{i}") for l in READER_SCRIPT],
                    )
                    for i in range(4)
                ]
                rogue = _session(server.port, "Write", VIOLATING_SCRIPT)
                statuses = await asyncio.gather(*writers, *readers, rogue)
                return statuses, server.metrics.snapshot()

        statuses, snap = asyncio.run(run())
        clean, violated = statuses[:-1], statuses[-1]

        # (a) the violating session is flagged at the correct event index
        assert not violated.ok
        assert violated.violation_index == VIOLATION_INDEX
        assert violated.violation_event == "intruder -> o : W(Data:d1)"

        # (b) clean sessions report ok with full accounting
        for status in clean[:4]:  # writers
            assert status.ok and status.errors == 0
            assert status.events == len(WRITER_SCRIPT)
            assert status.skipped == 1  # the UNRELATED event
        for status in clean[4:]:  # readers
            assert status.ok and status.errors == 0
            assert status.events == len(READER_SCRIPT)
            assert status.skipped == 0

        # (c) metrics counters equal the number of events sent
        total_sent = (
            4 * len(WRITER_SCRIPT) + 4 * len(READER_SCRIPT) + len(VIOLATING_SCRIPT)
        )
        assert snap["events_observed"] == total_sent
        assert snap["events_skipped"] == 4
        assert snap["violations"] == 1
        assert snap["events_malformed"] == 0
        assert snap["sessions_opened"] == 9 == snap["sessions_closed"]
        assert snap["latency"]["Write"]["count"] + snap["latency"]["Read2"][
            "count"
        ] == total_sent


class TestProtocolBehaviour:
    def _roundtrip(self, registry, lines, spec="Write"):
        async def run():
            async with MonitorServer(registry) as server:
                return await _session(server.port, spec, lines)

        return asyncio.run(run())

    def test_unknown_spec_rejected(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                client = MonitorClient("127.0.0.1", server.port)
                await client.connect()
                with pytest.raises(Exception, match="Nope"):
                    await client.use_spec("Nope")
                await client.close()

        asyncio.run(run())

    def test_malformed_events_counted_not_fatal(self, registry):
        status = self._roundtrip(
            registry, ["not an event line", "w1 -> o : OW", "o -> o : SELF"]
        )
        assert status.ok
        assert status.events == 1 and status.errors == 2

    def test_events_before_spec_are_errors(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                client = MonitorClient("127.0.0.1", server.port)
                await client.connect()
                await client.send_event("w1 -> o : OW")
                status = await client.status()
                await client.close()
                return status

        status = asyncio.run(run())
        assert status.spec is None
        assert status.events == 0 and status.errors == 1

    def test_reset_forgets_violation(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as client:
                    for line in VIOLATING_SCRIPT:
                        await client.send_event(line)
                    before = await client.status()
                    await client.reset()
                    await client.send_event("w1 -> o : OW")
                    after = await client.status()
                    return before, after

        before, after = asyncio.run(run())
        assert not before.ok
        assert after.ok and after.events == 1

    def test_rebinding_spec_resets_session(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as client:
                    for line in VIOLATING_SCRIPT:
                        await client.send_event(line)
                    await client.use_spec("Read2")
                    status = await client.status()
                    return status

        status = asyncio.run(run())
        assert status.ok and status.spec == "Read2" and status.events == 0

    def test_hello_lists_specs(self, registry):
        async def run():
            async with MonitorServer(registry) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    return client.server_specs

        assert asyncio.run(run()) == ("Read2", "Write")
