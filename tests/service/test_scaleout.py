"""Multi-process serving topology: hash ring, both listener modes, chaos.

The spawned-worker tests are real multi-process integration tests: each
worker re-imports the package and compiles its own registry, so they
cost seconds, not milliseconds.  The document under test is kept tiny
and verdicts are always compared against an in-process single-server
baseline rather than hand-computed.
"""

import asyncio

import pytest

from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.service.topology import (
    HashRing,
    ScaleOutServer,
    WorkerConfig,
    reuseport_available,
)

DOC = """
object o
object c
specification Cap {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)> <c,o,M(_)>"
}
"""

EVENT = "c -> o : M(Data:d)"

MODES = ["handoff"] + (["reuseport"] if reuseport_available() else [])


class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing(range(4))
        keys = [f"conn:{i}" for i in range(200)]
        first = [ring.node_for(k) for k in keys]
        assert first == [ring.node_for(k) for k in keys]
        assert set(first) <= set(range(4))

    def test_same_ring_same_answers_across_instances(self):
        a, b = HashRing(range(4)), HashRing(range(4))
        assert [a.node_for(i) for i in range(64)] == [
            b.node_for(i) for i in range(64)
        ]

    def test_spread_uses_every_node(self):
        ring = HashRing(range(4), vnodes=64)
        hits = {ring.node_for(f"conn:{i}") for i in range(500)}
        assert hits == set(range(4))

    def test_single_node_takes_everything(self):
        ring = HashRing([0])
        assert {ring.node_for(i) for i in range(50)} == {0}


class TestConstruction:
    def test_needs_exactly_one_source(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="exactly one"):
            ScaleOutServer(procs=2)
        with pytest.raises(ReproError, match="exactly one"):
            ScaleOutServer(scenario="pubsub_fanout", document=DOC)

    def test_rejects_unknown_listener(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="listener"):
            ScaleOutServer(document=DOC, listener="carrier-pigeon")

    def test_worker_config_is_frozen(self):
        config = WorkerConfig(
            worker_index=0, mode="handoff", host="127.0.0.1", port=1,
            scenario=None, document=DOC,
        )
        with pytest.raises(AttributeError):
            config.port = 2


async def _baseline(lines_per_session):
    """The same sessions against one in-process server."""
    registry = SpecRegistry.from_text(DOC)
    out = []
    async with MonitorServer(registry) as server:
        for lines in lines_per_session:
            async with MonitorClient(
                "127.0.0.1", server.port, spec="Cap"
            ) as client:
                for line in lines:
                    await client.send_event(line)
                out.append(await client.status())
    return out


def _verdict(status):
    return (
        status.ok,
        status.events,
        status.violation_index,
        status.violation_event,
    )


class TestScaleOut:
    # Cap admits exactly two M events (plus prefixes): three violate.
    SESSIONS = [[EVENT] * 2, [EVENT] * 3, [EVENT] * 1, [EVENT] * 4]

    @pytest.mark.parametrize("mode", MODES)
    def test_verdicts_match_single_process(self, mode):
        async def run():
            server = ScaleOutServer(document=DOC, procs=2, listener=mode)
            await server.start()
            try:
                statuses = []
                for lines in self.SESSIONS:
                    async with MonitorClient(
                        "127.0.0.1", server.port, spec="Cap"
                    ) as client:
                        for line in lines:
                            await client.send_event(line)
                        statuses.append(await client.status())
            finally:
                await server.stop()
            return statuses, await _baseline(self.SESSIONS)

        statuses, baseline = asyncio.run(run())
        assert [_verdict(s) for s in statuses] == [
            _verdict(s) for s in baseline
        ]

    def test_kill_and_restart_keeps_verdicts(self, tmp_path):
        """SIGKILL a worker mid-stream; durable sessions ride it out."""

        async def run():
            server = ScaleOutServer(
                document=DOC,
                procs=2,
                data_dir=tmp_path,
                fsync_every=1,
                snapshot_every=4,
            )
            await server.start()
            try:
                clients = [
                    MonitorClient(
                        "127.0.0.1",
                        server.port,
                        spec="Cap",
                        session=f"chaos:{i}",
                        connect_retries=10,
                    )
                    for i in range(len(self.SESSIONS))
                ]
                for client in clients:
                    await client.connect()
                    assert client.durable
                # first event of every session, then kill both workers in
                # turn so every session's worker dies at least once
                for client, lines in zip(clients, self.SESSIONS):
                    await client.send_event(lines[0])
                    await client.status()
                pids = server.worker_pids
                for index in range(server.procs):
                    server.kill_worker(index)
                for _ in range(600):  # wait for the supervisor respawns
                    if server.restarts >= server.procs:
                        break
                    await asyncio.sleep(0.1)
                assert server.restarts >= server.procs
                assert set(server.worker_pids).isdisjoint(pids)
                statuses = []
                for client, lines in zip(clients, self.SESSIONS):
                    try:
                        for line in lines[1:]:
                            await client.send_event(line)
                        statuses.append(await client.status())
                    finally:
                        await client.close()
            finally:
                await server.stop()
            return statuses, await _baseline(self.SESSIONS)

        statuses, baseline = asyncio.run(run())
        assert [_verdict(s) for s in statuses] == [
            _verdict(s) for s in baseline
        ]
