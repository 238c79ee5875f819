"""The serving workloads: ``binary-events``, ``text-durable``, ``http-batch``.

One *round* is a fixed amount of seeded work against a fresh server:

1. launch ``repro serve`` (a sample of ``setup_s``);
2. two sessions each send the same pre-generated happy walk in closed-loop
   segments, asking for the verdict after each segment — the timed part;
3. each session then checks a faulted tail against the generator's dense
   oracle (untimed: after a violation the monitor stops stepping);
4. the server stops and a new one starts, on the same data directory for
   ``text-durable``; both sessions re-attach and report their verdicts
   again (a sample of ``resume_s``);
5. a fresh checker process decides the served scenario's own claims (a
   sample of ``check_s``).

Rounds repeat until the run's seconds are spent; every metric is the
median over rounds (latency percentiles pool every segment of the run).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

from checking import SCENARIO_CLAIMS, run_checker
from harness import MONITORED, SCENARIO, ServerProcess, SpeedProbe, Tally
from repro.core.errors import ReproError
from repro.obs.trace import span

SESSIONS = 2
#: Faulted tail: chunks of this many events, each chunk checked.
TAIL_CHUNK = 64
TAIL_CHUNKS = 4
HOST = "127.0.0.1"
#: What a dropped connection or an error reply raises in a session; each
#: counts as a failed operation instead of ending the run.
_LOST = (ConnectionError, OSError, ReproError)


@dataclass(frozen=True)
class Shape:
    """How one workload cuts its per-session stream."""

    framing: str  # "binary", "text" or "http"
    segment: int  # events per verdict (per POST on http)
    segments: int  # segments per session per round


SHAPES = {
    "binary-events": Shape("binary", 2048, 24),
    "text-durable": Shape("text", 256, 24),
    "http-batch": Shape("http", 64, 160),
}


@dataclass
class Stream:
    """One session's pre-generated input and its oracle verdicts."""

    segments: list  # happy segments: Event lists, or line lists on http
    tail: list  # faulted chunks, same form
    tail_expected: list  # oracle violation index after each tail chunk

    @property
    def happy_events(self) -> int:
        return sum(len(s) for s in self.segments)

    @property
    def tail_events(self) -> int:
        return sum(len(c) for c in self.tail)


def make_streams(shape: Shape, seed: int) -> list[Stream]:
    """Seeded per-session streams from the workload generator (untimed)."""
    from repro.workload.generator import FaultSpec, StreamSession
    from repro.workload.scenarios import get_scenario

    compiled = get_scenario(SCENARIO).registry().get(MONITORED)
    faults = FaultSpec(reorder=0.02, dup=0.02, drop=0.02)
    streams = []
    for s in range(SESSIONS):
        happy = StreamSession(compiled, seed=f"{seed}/{s}")
        faulted = StreamSession(compiled, faults, seed=f"{seed}/{s}/tail")
        take = "next_batch_lines" if shape.framing == "http" else "next_batch"
        segments = [
            getattr(happy, take)(shape.segment) for _ in range(shape.segments)
        ]
        if happy.expected_violation is not None:
            raise RuntimeError("the happy walk left the trace set")
        tail, expected = [], []
        for _ in range(TAIL_CHUNKS):
            tail.append(getattr(faulted, take)(TAIL_CHUNK))
            expected.append(faulted.expected_violation)
        streams.append(Stream(segments, tail, expected))
    return streams


@dataclass
class Round:
    """What one round measured."""

    setup_s: float = 0.0
    events: int = 0
    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    server_rss_mb: float = 0.0
    resume_s: float = 0.0
    latencies: list = field(default_factory=list)
    check: dict = field(default_factory=dict)
    counts: dict | None = None  # work counts, in a traced run's first round
    #: Host-speed samples of this round; its times are scaled by them.
    speed: SpeedProbe = field(default_factory=SpeedProbe)


# -- binary and text sessions (MonitorClient) ---------------------------------


async def _ingest(client, stream: Stream, label: str, lat: list, tally: Tally) -> None:
    sent = 0
    try:
        for segment in stream.segments:
            for event in segment:
                await client.send_event(event)
            with span("bench.client.status", session=label, events=len(segment)):
                start = time.perf_counter()
                status = await client.status()
                lat.append(time.perf_counter() - start)
            sent += len(segment)
            tally.check(
                status.ok and status.events == sent,
                f"{label}: verdict after {sent} happy events: {status}",
            )
    except _LOST as exc:
        tally.fail(f"{label}: session lost after {sent} events: {exc!r}")


async def _tail(client, stream: Stream, label: str, tally: Tally):
    """The faulted tail; returns the last verdict (None if the session died)."""
    sent, status = 0, None
    try:
        await client.reset()
        for chunk, expected in zip(stream.tail, stream.tail_expected):
            for event in chunk:
                await client.send_event(event)
            sent += len(chunk)
            status = await client.status()
            tally.check(
                status.violation_index == expected and status.events == sent,
                f"{label}: tail verdict {status}, oracle index {expected}",
            )
    except _LOST as exc:
        tally.fail(f"{label}: session lost in the tail: {exc!r}")
        return None
    return status


def _client(port: int, framing: str, key: str):
    from repro.service import MonitorClient

    if framing == "binary":
        return MonitorClient(HOST, port, spec=MONITORED, proto=2)
    return MonitorClient(HOST, port, spec=MONITORED, session=key, resume=False)


async def _client_phase(
    server: ServerProcess, port: int, framing: str, streams, keys, tally: Tally,
    rnd: Round,
) -> list:
    clients = [_client(port, framing, key) for key in keys]
    for client in clients:
        await client.connect()
    for client, key in zip(clients, keys):
        wanted = client.proto == 2 if framing == "binary" else client.durable
        tally.check(wanted, f"{key}: session not {framing}/durable as asked")
    metrics_before = await clients[0].metrics() if rnd.counts is not None else ""
    rnd.speed.sample()
    server_cpu = server.cpu_seconds()
    client_cpu = time.process_time()
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _ingest(c, s, k, rnd.latencies, tally)
            for c, s, k in zip(clients, streams, keys)
        )
    )
    rnd.wall_s = time.perf_counter() - start
    rnd.client_cpu_s = time.process_time() - client_cpu
    rnd.server_cpu_s = server.cpu_seconds() - server_cpu
    rnd.events = sum(s.happy_events for s in streams)
    rnd.speed.sample()
    if rnd.counts is not None:
        rnd.counts["metrics"] = (metrics_before, await clients[0].metrics())
    finals = await asyncio.gather(
        *(_tail(c, s, k, tally) for c, s, k in zip(clients, streams, keys))
    )
    rnd.server_rss_mb = server.peak_rss_mb()
    # Stop the server while the sessions are still attached: the restart
    # below is the operator's, not the clients'.  The loop keeps running
    # meanwhile, so the relay (when counting) forwards the server's close.
    server.interrupt()
    deadline = time.monotonic() + 15
    while server.proc.poll() is None and time.monotonic() < deadline:
        await asyncio.sleep(0.005)
    server.stop()
    for client in clients:
        await client.close()
    return finals


async def _reattach(port: int, framing: str, streams, keys, finals, tally: Tally) -> None:
    clients = [_client(port, framing, key) for key in keys]
    for client, stream, key, final in zip(clients, streams, keys, finals):
        try:
            await client.connect()
            status = await client.status()
        except _LOST as exc:
            tally.fail(f"{key}: re-attach failed: {exc!r}")
            continue
        if final is None:
            tally.fail(f"{key}: no verdict from before the restart")
            continue
        if framing == "text":
            sent = stream.happy_events + stream.tail_events
            ok = (
                client.durable
                and status.applied == sent
                and status.events == final.events
                and status.violation_index == final.violation_index
            )
        else:
            ok = status.ok and status.events == 0
        tally.check(ok, f"{key}: resumed verdict {status}, before restart {final}")
    for client in clients:
        await client.close()


def _relayed(framing: str, counts: dict | None, port: int, body):
    """Run ``body(port)`` with the sessions routed through a counting relay."""
    from relay import CountingRelay

    async def run():
        if counts is None:
            return await body(port)
        relay = CountingRelay(port, binary=framing == "binary")
        await relay.start()
        try:
            return await body(relay.port)
        finally:
            await relay.close()
            counts["client_bytes"] = relay.bytes_up
            counts["client_frames"] = relay.frames_up

    return asyncio.run(run())


def _session_round(framing, streams, workdir, index, tally, rnd, spans) -> None:
    data_dir = workdir / f"data-{index}" if framing == "text" else None
    keys = [f"bench-{index}-{s}" for s in range(SESSIONS)]
    server = ServerProcess(data_dir=data_dir, spans=spans)
    with span("bench.server.start"):
        rnd.setup_s = server.start(rnd.speed)
    try:
        with span("bench.sessions", framing=framing):
            finals = _relayed(
                framing, rnd.counts, server.port,
                lambda port: _client_phase(
                    server, port, framing, streams, keys, tally, rnd
                ),
            )
    finally:
        server.stop()
    if data_dir is not None and rnd.counts is not None:
        # Every durable HELLO reads every log under the data directory.
        rnd.counts["scan_bytes"] = sum(
            p.stat().st_size for p in data_dir.glob("worker-*/shard-*.log")
        )
    start = time.perf_counter()
    server = ServerProcess(data_dir=data_dir)
    try:
        with span("bench.resume", framing=framing):
            server.start(rnd.speed)
            asyncio.run(
                _reattach(server.port, framing, streams, keys, finals, tally)
            )
        rnd.resume_s = time.perf_counter() - start
    finally:
        server.stop()


# -- HTTP sessions -------------------------------------------------------------


class _CountingSocket:
    """Wraps a connected socket; counts the bytes the HTTP client sends."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.sent = 0

    def sendall(self, data, *args):
        self.sent += len(data)
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _post(conn, key: str, body: bytes, tally: Tally) -> dict | None:
    """POST events; an error status or a dropped connection is a failed op."""
    try:
        conn.request(
            "POST", f"/v1/sessions/{key}/events", body,
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
    except (OSError, http.client.HTTPException, ValueError) as exc:
        tally.fail(f"{key}: {exc!r}")
        return None
    if response.status != 200:
        tally.fail(f"{key}: HTTP {response.status} {payload}")
        return None
    return payload


def _body(lines) -> bytes:
    return json.dumps({"spec": MONITORED, "events": lines}).encode("utf-8")


def _http_connect(port, sockets):
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    conn.connect()
    if sockets is not None:
        conn.sock = _CountingSocket(conn.sock)
        sockets.append(conn.sock)
    return conn


def _http_session(conn, key, bodies, stream, lat, tally) -> None:
    sent = 0
    for body, segment in zip(bodies, stream.segments):
        start = time.perf_counter()
        with span("bench.http.post", session=key, events=len(segment)):
            payload = _post(conn, key, body, tally)
        if payload is None:
            continue
        lat.append(time.perf_counter() - start)
        sent += len(segment)
        tally.check(
            payload["ok"] and payload["events"] == sent,
            f"{key}: verdict after {sent} happy events: {payload}",
        )


def _http_tail(port, key, stream, tally) -> None:
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        sent = 0
        for chunk, expected in zip(stream.tail, stream.tail_expected):
            payload = _post(conn, key, _body(chunk), tally)
            sent += len(chunk)
            if payload is None:
                continue
            index = (payload["violation"] or {}).get("index")
            tally.check(
                index == expected and payload["events"] == sent,
                f"{key}: tail verdict {payload}, oracle index {expected}",
            )
    finally:
        conn.close()


def _http_round(streams, bodies, index, tally, rnd, spans) -> None:
    keys = [f"bench-{index}-{s}" for s in range(SESSIONS)]
    server = ServerProcess(http=True, spans=spans)
    with span("bench.server.start"):
        rnd.setup_s = server.start(rnd.speed)
    try:
        port = server.http_port
        tallies = [Tally() for _ in keys]
        sockets = [] if rnd.counts is not None else None
        if rnd.counts is not None:
            rnd.counts["metrics"] = (_get_metrics(port), None)
        # The gateway serves each keep-alive connection on its own thread,
        # and a thread's CPU leaves /proc when it ends: both connections
        # stay open until the server's CPU has been read.
        conns = [_http_connect(port, sockets) for _ in keys]
        try:
            rnd.speed.sample()
            server_cpu = server.cpu_seconds()
            client_cpu = time.process_time()
            start = time.perf_counter()
            helper = threading.Thread(
                target=_http_session,
                args=(conns[1], keys[1], bodies[1], streams[1], rnd.latencies,
                      tallies[1]),
            )
            helper.start()
            _http_session(conns[0], keys[0], bodies[0], streams[0],
                          rnd.latencies, tallies[0])
            helper.join()
            rnd.wall_s = time.perf_counter() - start
            rnd.client_cpu_s = time.process_time() - client_cpu
            rnd.server_cpu_s = server.cpu_seconds() - server_cpu
        finally:
            for conn in conns:
                conn.close()
        rnd.events = sum(s.happy_events for s in streams)
        rnd.speed.sample()
        for t in tallies:
            tally.attempted += t.attempted
            tally.failed += t.failed
        if rnd.counts is not None:
            rnd.counts["metrics"] = (rnd.counts["metrics"][0], _get_metrics(port))
            rnd.counts["request_bytes"] = sum(s.sent for s in sockets)
        for key, stream in zip(keys, streams):
            _http_tail(port, f"{key}-tail", stream, tally)
        rnd.server_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    start = time.perf_counter()
    server = ServerProcess(http=True)
    try:
        with span("bench.resume", framing="http"):
            server.start(rnd.speed)
            _http_reattach(server.http_port, keys, tally)
        rnd.resume_s = time.perf_counter() - start
    finally:
        server.stop()


def _http_reattach(port: int, keys, tally: Tally) -> None:
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        for key in keys:
            payload = _post(conn, key, _body([]), tally)
            if payload is not None:
                tally.check(
                    payload["ok"] and payload["events"] == 0,
                    f"{key}: re-attached verdict {payload}",
                )
    finally:
        conn.close()


def _get_metrics(port: int) -> str:
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        conn.request("GET", "/v1/metrics")
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


# -- the run --------------------------------------------------------------------


def one_round(workload, streams, bodies, workdir, index, tally, *,
              counts=False, spans=None) -> Round:
    framing = SHAPES[workload].framing
    rnd = Round(counts={} if counts else None)
    if framing == "http":
        _http_round(streams, bodies, index, tally, rnd, spans)
    else:
        _session_round(framing, streams, workdir, index, tally, rnd, spans)
    with span("bench.checker", claims="scenario"):
        report = run_checker(SCENARIO_CLAIMS, {"scenario": SCENARIO}, rnd.speed)
    agree = [ident for ident, ok, _, _ in report["outcomes"] if ok]
    tally.attempted += report["obligations"]
    tally.failed += report["obligations"] - len(agree)
    rnd.check = report
    return rnd


def http_bodies(streams) -> list[list[bytes]]:
    return [[_body(seg) for seg in s.segments] for s in streams]
