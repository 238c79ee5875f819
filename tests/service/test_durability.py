"""Durable event log, snapshots, and the replay correctness law.

The law under test (ISSUE PR 9): interrupt a durable session at any
event index, restart the server over the same data directory, finish
the stream — the per-session verdict (ok flag, violation index and
event, counters) must be identical to an uninterrupted run.
"""

import asyncio
import random
import shutil

import pytest

from repro.core.errors import ReproError
from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.service import durability
from repro.service.durability import (
    REC_BIND,
    REC_IDS,
    REC_LINE,
    REC_RESET,
    DurabilityError,
    Record,
    WorkerStore,
    decode_records,
    encode_record,
    load_best_snapshot,
    recover,
    scan_records,
)
from repro.service import wire
from repro.service.protocol import parse_reply
from repro.workload.generator import FaultSpec, StreamSession
from repro.workload.scenarios import all_scenarios, get_scenario

WRITE_LINES = [
    "w1 -> o : OW",
    "w1 -> o : W(Data:d1)",
    "w1 -> o : UNRELATED",  # outside Write's alphabet: skipped
    "w1 -> o : W(Data:d2)",
    "w1 -> o : CW",
]

VIOLATING_LINES = [
    "w9 -> o : OW",
    "w9 -> o : W(Data:d1)",
    "intruder -> o : W(Data:d1)",
    "w9 -> o : CW",
]
VIOLATION_INDEX = 2


@pytest.fixture()
def registry(cast) -> SpecRegistry:
    return SpecRegistry([cast.write()])


# -- record codec ------------------------------------------------------------


class TestRecordCodec:
    def test_round_trip(self):
        blob = b"".join(
            [
                encode_record(REC_BIND, "k", 0, 0, b"Write"),
                encode_record(REC_LINE, "k", 1, 0, b"w -> o : OW"),
                encode_record(REC_RESET, "k", 2, 1),
            ]
        )
        records = list(decode_records(blob))
        assert [r.opcode for r in records] == [REC_BIND, REC_LINE, REC_RESET]
        assert [r.lsn for r in records] == [0, 1, 2]
        assert [r.received for r in records] == [0, 0, 1]
        assert records[0].body == b"Write"
        assert records[1].body == b"w -> o : OW"
        assert [r.inputs for r in records] == [0, 1, 0]

    def test_ids_record_counts_its_inputs(self):
        body = wire.pack_event_ids([7, 7, 9])
        record = next(iter(decode_records(encode_record(REC_IDS, "k", 3, 5, body))))
        assert record.inputs == 3
        assert record.body == body

    def test_torn_tail_ends_the_stream_cleanly(self):
        intact = encode_record(REC_LINE, "k", 0, 0, b"a -> o : OW")
        torn = encode_record(REC_LINE, "k", 1, 1, b"a -> o : CW")
        for cut in range(1, len(torn)):
            records = list(decode_records(intact + torn[:-cut]))
            assert [r.lsn for r in records] == [0], f"cut={cut}"

    def test_payload_shorter_than_prefix_is_an_error(self):
        # A complete frame whose payload cannot hold the record prefix is
        # corruption, not a torn tail.
        with pytest.raises(DurabilityError):
            list(decode_records(wire.encode_frame(REC_LINE, b"xx")))

    def test_oversized_key_rejected(self):
        with pytest.raises(DurabilityError):
            encode_record(REC_LINE, "k" * 70_000, 0, 0, b"")


# -- worker store ------------------------------------------------------------


class TestWorkerStore:
    def test_append_and_scan_across_shards(self, tmp_path):
        store = WorkerStore(tmp_path, worker_id=0, fsync_every=2)
        store.append(1, encode_record(REC_BIND, "k", 0, 0, b"Write"))
        store.append(0, encode_record(REC_LINE, "k", 1, 0, b"x"))
        store.append(1, encode_record(REC_LINE, "k", 2, 1, b"y"))
        store.append(0, encode_record(REC_LINE, "other", 0, 0, b"z"))
        store.close()
        assert sorted(p.name for p in tmp_path.glob("worker-0/*.log")) == [
            "shard-0.log",
            "shard-1.log",
        ]
        # scan rebuilds the per-key total order by lsn across shard files
        records = scan_records(tmp_path, "k")
        assert [r.lsn for r in records] == [0, 1, 2]
        assert [r.body for r in records] == [b"Write", b"x", b"y"]
        assert [r.body for r in scan_records(tmp_path, "other")] == [b"z"]

    def test_scan_of_missing_dir_is_empty(self, tmp_path):
        assert scan_records(tmp_path / "nope", "k") == []
        assert load_best_snapshot(tmp_path / "nope", "k") is None

    def test_snapshot_round_trip_keeps_the_freshest(self, tmp_path):
        store = WorkerStore(tmp_path, worker_id=0)
        store.write_snapshot({"key": "k", "lsn": 3, "received": 2})
        store.write_snapshot({"key": "k", "lsn": 9, "received": 7})
        # a second worker's older snapshot of the same key must lose
        other = WorkerStore(tmp_path, worker_id=1)
        other.write_snapshot({"key": "k", "lsn": 5, "received": 4})
        store.close()
        other.close()
        best = load_best_snapshot(tmp_path, "k")
        assert best is not None and best["lsn"] == 9 and best["received"] == 7
        # no tmp files left behind by the atomic rename
        assert not list(tmp_path.glob("worker-*/snapshots/*.tmp"))

    def test_fsync_every_must_be_positive(self, tmp_path):
        with pytest.raises(DurabilityError):
            WorkerStore(tmp_path, fsync_every=0)


# -- recovery units ----------------------------------------------------------


def _log_lines(store, key, lines, *, lsn=0, received=0, shard=0, bind="Write"):
    """Append a BIND plus one REC_LINE per line; returns (next_lsn, received)."""
    if bind is not None:
        store.append(shard, encode_record(REC_BIND, key, lsn, received, bind.encode()))
        lsn += 1
    for line in lines:
        store.append(shard, encode_record(REC_LINE, key, lsn, received, line.encode()))
        lsn += 1
        received += 1
    return lsn, received


class TestRecover:
    def test_full_log_replay(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", WRITE_LINES)
        store.close()
        state = recover(tmp_path, "k", registry)
        assert state.spec == "Write"
        assert state.events == len(WRITE_LINES)
        assert state.skipped == 1
        assert state.errors == 0
        assert state.received == received
        assert state.next_lsn == next_lsn
        assert state.violation_index is None
        assert state.monitor is not None

    def test_replay_restores_a_violation(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        _log_lines(store, "k", VIOLATING_LINES)
        store.close()
        state = recover(tmp_path, "k", registry)
        assert state.violation_index == VIOLATION_INDEX
        assert state.violation_line == VIOLATING_LINES[VIOLATION_INDEX]

    def test_duplicate_suffix_is_deduplicated(self, tmp_path, registry):
        # An at-least-once resend re-logs lines the log already holds
        # (same watermark); replay must apply them exactly once.
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", WRITE_LINES)
        _log_lines(
            store,
            "k",
            WRITE_LINES[-2:],
            lsn=next_lsn,
            received=received - 2,
            bind=None,
        )
        store.close()
        state = recover(tmp_path, "k", registry)
        assert state.events == len(WRITE_LINES)
        assert state.received == received

    def test_reset_record_clears_counters_not_watermark(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", VIOLATING_LINES)
        store.append(0, encode_record(REC_RESET, "k", next_lsn, received))
        _log_lines(
            store,
            "k",
            WRITE_LINES[:2],
            lsn=next_lsn + 1,
            received=received,
            bind=None,
        )
        store.close()
        state = recover(tmp_path, "k", registry)
        assert state.events == 2
        assert state.violation_index is None
        # the watermark keeps counting across RESET: dedup stays sound
        assert state.received == received + 2

    def test_snapshot_skips_the_covered_prefix(self, tmp_path, registry):
        store = WorkerStore(tmp_path)
        next_lsn, received = _log_lines(store, "k", WRITE_LINES)
        store.close()
        full = recover(tmp_path, "k", registry)
        assert full.replayed == len(WRITE_LINES) + 1  # + the BIND record

        # now snapshot the final state: recovery replays nothing
        monitor = full.monitor
        payload = {
            "key": "k",
            "spec": "Write",
            "lsn": next_lsn,
            "received": received,
            "events": full.events,
            "skipped": full.skipped,
            "errors": full.errors,
            "violation": None,
            "monitor": {"alive": monitor.alive, "dstate": monitor._dstate},
        }
        store2 = WorkerStore(tmp_path)
        store2.write_snapshot(payload)
        store2.close()
        snapped = recover(tmp_path, "k", registry)
        assert snapped.replayed == 0
        assert snapped.events == full.events
        assert snapped.skipped == full.skipped
        assert snapped.received == full.received
        assert snapped.next_lsn == full.next_lsn

    def test_unknown_key_recovers_to_a_blank_session(self, tmp_path, registry):
        state = recover(tmp_path, "ghost", registry)
        assert state.spec is None and state.events == 0 and state.received == 0


# -- end-to-end replay law ---------------------------------------------------


async def _drive(port, spec, lines, key, *, status_every=None):
    """One durable session sending ``lines``; returns its final status."""
    client = MonitorClient("127.0.0.1", port, spec=spec, session=key)
    await client.connect()
    try:
        for i, line in enumerate(lines, start=1):
            await client.send_event(line)
            if status_every and i % status_every == 0:
                await client.status()
        return await client.status()
    finally:
        await client.close()


def _verdict(status):
    return (
        status.ok,
        status.events,
        status.skipped,
        status.errors,
        status.violation_index,
        status.violation_event,
    )


def _scenario_lines(name, seed, n=60):
    scenario = get_scenario(name)
    registry = scenario.registry()
    compiled = registry.get(scenario.monitored)
    stream = StreamSession(
        compiled, faults=FaultSpec(dup=0.05, drop=0.05), seed=seed
    )
    return scenario, registry, stream.next_batch_lines(n)


class TestReplayLaw:
    @pytest.mark.parametrize(
        "scenario_name", [s.name for s in all_scenarios()]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("wipe_snapshots", [False, True])
    def test_interrupted_equals_uninterrupted(
        self, tmp_path, scenario_name, seed, wipe_snapshots
    ):
        scenario, registry, lines = _scenario_lines(scenario_name, seed)
        cut = random.Random(f"{scenario_name}:{seed}").randrange(1, len(lines))
        key = f"{scenario_name}:{seed}"
        spec = scenario.monitored

        async def run():
            # the uninterrupted twin
            async with MonitorServer(
                registry, data_dir=tmp_path / "a"
            ) as server:
                baseline = await _drive(server.port, spec, lines, key)

            # interrupted at `cut`, then restarted over the same data dir
            durable = dict(
                data_dir=tmp_path / "b", fsync_every=4, snapshot_every=16
            )
            async with MonitorServer(
                scenario.registry(), **durable
            ) as server:
                await _drive(server.port, spec, lines[:cut], key, status_every=7)
            if wipe_snapshots:
                # force a pure log replay: deleting every checkpoint must
                # not change the recovered state
                for snap_dir in (tmp_path / "b").glob("worker-*/snapshots"):
                    shutil.rmtree(snap_dir)
            async with MonitorServer(
                scenario.registry(), **durable
            ) as server:
                resumed = await _drive(server.port, spec, lines[cut:], key)
            return baseline, resumed

        baseline, resumed = asyncio.run(run())
        assert _verdict(resumed) == _verdict(baseline)

    @pytest.mark.parametrize("proto", [1, 2])
    def test_client_auto_resume_across_restart(self, tmp_path, proto, cast):
        """A live client rides out a server restart transparently."""
        registry = SpecRegistry([cast.write()])
        lines = WRITE_LINES + VIOLATING_LINES

        async def run():
            # uninterrupted control session (plain, no durability)
            async with MonitorServer(
                SpecRegistry([cast.write()])
            ) as control_server:
                async with MonitorClient(
                    "127.0.0.1", control_server.port, spec="Write", proto=proto
                ) as control:
                    for line in lines:
                        await control.send_event(line)
                    baseline = await control.status()

            server = MonitorServer(
                registry, data_dir=tmp_path / "d", fsync_every=1
            )
            await server.start()
            port = server.port
            client = MonitorClient(
                "127.0.0.1", port, spec="Write", session="k", proto=proto
            )
            await client.connect()
            assert client.durable
            for line in lines[:4]:
                await client.send_event(line)
            await client.status()
            await server.stop()

            # restart on the same port; the client's next sync reconnects,
            # re-attaches the session, and resends the unacked suffix
            server = MonitorServer(
                SpecRegistry([cast.write()]),
                port=port,
                data_dir=tmp_path / "d",
                fsync_every=1,
            )
            await server.start()
            try:
                for line in lines[4:]:
                    await client.send_event(line)
                status = await client.status()
            finally:
                await client.close()
                await server.stop()
            return baseline, status

        baseline, status = _with_retries(run)
        assert status.events == len(lines)
        assert status.skipped == 1
        assert not status.ok
        assert _verdict(status) == _verdict(baseline)

    def test_non_durable_sessions_see_no_applied_field(self, tmp_path, cast):
        registry = SpecRegistry([cast.write()])

        async def run():
            async with MonitorServer(
                registry, data_dir=tmp_path
            ) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="Write"
                ) as plain:
                    await plain.send_event(WRITE_LINES[0])
                    return await plain.status(), plain.durable

        status, durable = asyncio.run(run())
        assert not durable
        assert status.applied is None


def _with_retries(run, attempts=3):
    """Re-run a port-reusing coroutine if the port was snatched between binds."""
    for attempt in range(attempts):
        try:
            return asyncio.run(run())
        except OSError:
            if attempt == attempts - 1:
                raise


# -- recovery failure and older data-directory layouts ------------------------


async def _raw_session(port, lines):
    """Send ``lines`` in one write and read one reply per non-EVENT line."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write("".join(f"{line}\n" for line in lines).encode())
        await writer.drain()
        replies = []
        for line in lines:
            if not line.startswith("EVENT "):
                replies.append((await reader.readline()).decode().strip())
        return replies
    finally:
        writer.close()
        await writer.wait_closed()


class TestRecoveryFailure:
    def test_failed_recovery_replies_err_and_keeps_the_snapshot(self, tmp_path):
        # A scenario spec: its concrete letter table keeps the monitor on
        # the dense array, so the session's BYE writes a snapshot.
        scenario, registry, lines = _scenario_lines("two_phase_dynamic", 0, 20)
        spec = scenario.monitored
        snapshots = tmp_path / "worker-0" / "snapshots"

        async def run():
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                await _drive(server.port, spec, lines, "k1")
                (snap,) = snapshots.glob("*.snap")
                before = snap.read_bytes()
                # A complete record whose payload is shorter than its
                # 10-byte prefix: corruption, which recovery must refuse.
                with open(tmp_path / "worker-0" / "shard-0.log", "ab") as log:
                    log.write(wire.encode_frame(REC_LINE, b"xx"))
                hello, status = await _raw_session(
                    server.port, ["HELLO session=k1", "STATUS"]
                )
                # the server still serves new connections
                async with MonitorClient(
                    "127.0.0.1", server.port, spec=spec
                ) as plain:
                    for line in lines:
                        await plain.send_event(line)
                    plain_status = await plain.status()
            return before, snap, hello, status, plain_status

        before, snap, hello, status, plain_status = asyncio.run(run())
        assert hello.startswith("ERR ")
        assert "prefix" in hello
        # the session stayed plain and usable: no durable watermark
        assert status.startswith("OK status") and "applied=" not in status
        # no farewell snapshot overwrote the key's checkpoint
        assert snap.read_bytes() == before
        assert plain_status.events == len(lines)

    def test_client_raises_instead_of_falling_back_to_plain(
        self, tmp_path, registry
    ):
        store = WorkerStore(tmp_path)
        store.append(0, wire.encode_frame(REC_LINE, b"xx"))
        store.close()

        async def run():
            async with MonitorServer(registry, data_dir=tmp_path) as server:
                for proto in (1, 2):
                    client = MonitorClient(
                        "127.0.0.1", server.port, session="k1", proto=proto
                    )
                    with pytest.raises(ReproError, match="prefix") as info:
                        await client.connect()
                    assert "k1" in str(info.value)
                    assert not client.durable

        asyncio.run(run())


class TestOlderLayout:
    """Data directories that spread one worker's records over shard logs."""

    def test_records_on_several_shard_logs_resume_exactly(
        self, tmp_path, registry
    ):
        lines = WRITE_LINES + VIOLATING_LINES
        cut = 4
        burst = [f"EVENT {line}" for line in lines[cut:]]

        async def run():
            async with MonitorServer(registry, data_dir=tmp_path / "a") as server:
                baseline = await _drive(server.port, "Write", lines, "k")

            # The older layout: the same key's first records spread over
            # shard-1.log and shard-3.log of one worker.
            store = WorkerStore(tmp_path / "b")
            store.append(1, encode_record(REC_BIND, "k", 0, 0, b"Write"))
            for i, line in enumerate(lines[:cut]):
                store.append(
                    1 + 2 * (i % 2),
                    encode_record(REC_LINE, "k", i + 1, i, line.encode()),
                )
            store.close()
            async with MonitorServer(registry, data_dir=tmp_path / "b") as server:
                # STATUS right behind a pipelined burst of EVENT lines:
                # stepping is inline, so it counts every one of them.
                replies = await _raw_session(
                    server.port,
                    ["HELLO session=k", "SPEC Write", *burst, "STATUS", "BYE"],
                )
            return baseline, replies

        baseline, (hello, spec, status, bye) = asyncio.run(run())
        assert "durable=1" in hello
        assert spec == f"OK spec Write applied={cut}"
        resumed = parse_reply(status).status
        assert _verdict(resumed) == _verdict(baseline)
        assert resumed.events == len(lines)
        assert bye == f"OK bye events={len(lines)}"

        logs = sorted(p.name for p in (tmp_path / "b").glob("worker-0/*.log"))
        assert logs == ["shard-0.log", "shard-1.log", "shard-3.log"]
        # Pure log replay across all three logs equals the uninterrupted
        # run's recovery: counters and the first-violation index.
        for root in (tmp_path / "a", tmp_path / "b"):
            for snap_dir in root.glob("worker-*/snapshots"):
                shutil.rmtree(snap_dir)
        expected = recover(tmp_path / "a", "k", registry)
        got = recover(tmp_path / "b", "k", registry)
        fields = ("events", "skipped", "errors", "received", "violation_index")
        assert [getattr(got, f) for f in fields] == [
            getattr(expected, f) for f in fields
        ]
        assert got.violation_index == len(WRITE_LINES) + VIOLATION_INDEX
