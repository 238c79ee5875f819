"""Per-layer probes for the traced run.

Each probe calls one layer's public function on the run's own seeded
stream, inside a benchmark span (``repro.obs.trace.span``) named after
the layer; the metric is the span's duration per unit of work, median
over repeats.  The probes are the same on every workload, so a per-layer
time is comparable across commits on any of them.  The server-side
``service.batch`` self time comes from the server's own span export
(``repro serve --obs-spans``).

Run as a script (``layers.py compile``) it is the fresh process that
times one cold registry compile.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import subprocess
import sys
import time
from array import array
from pathlib import Path

from harness import (
    MONITORED, ROOT, SCENARIO, ServerProcess, SpeedProbe, child_env, median,
)

PROBE_EVENTS = 16384
BATCH = 256  # the client's default EVENTS batch
POST_LINES = 64
REPEATS = 3


class Probe:
    """Times public calls inside benchmark spans (median of repeats).

    The host speed is sampled between calls; :meth:`at_reference` scales
    every time to the reference speed, as the end-to-end metrics are.
    """

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.speed = SpeedProbe()

    def time(self, metric: str, units: int, fn, *, scale: float = 1e6) -> None:
        from repro.obs.trace import span

        samples = []
        for _ in range(REPEATS):
            self.speed.sample()
            with span(f"bench.{metric}", units=units):
                start = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - start)
        self.metrics[metric] = median(samples) / units * scale

    def at_reference(self) -> dict[str, float]:
        self.speed.sample()
        return {k: v * self.speed.factor for k, v in self.metrics.items()}


def _cold_compile_s() -> float:
    import repro.service.registry  # noqa: F401 - imports are not the compile
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario(SCENARIO)
    start = time.perf_counter()
    scenario.registry()
    return time.perf_counter() - start


def _compile_in_child() -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "compile"],
        cwd=ROOT, env=child_env(), text=True, capture_output=True, timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"compile probe failed: {out.stderr[-500:]}")
    return float(out.stdout.strip().splitlines()[-1])


def probe_layers(events, workdir: Path) -> dict[str, float]:
    from repro.runtime import tracefile
    from repro.service import durability, wire
    from repro.service.shards import ShardPool
    from repro.workload.scenarios import get_scenario

    registry = get_scenario(SCENARIO).registry()
    events = events[:PROBE_EVENTS]
    n = len(events)
    probe = Probe()

    lines = [tracefile.format_event(e) for e in events]
    probe.time("tracefile.format_us_per_event", n,
               lambda: [tracefile.format_event(e) for e in events])
    probe.time("tracefile.parse_us_per_line", n,
               lambda: [tracefile.parse_line(line) for line in lines])

    line_ids = {line: i for i, line in enumerate(registry.letter_lines(MONITORED))}
    ids = array("i", (line_ids[line] for line in lines))
    batches = [ids[i:i + BATCH] for i in range(0, n, BATCH)]
    payloads = [wire.pack_event_ids(b) for b in batches]
    probe.time("wire.pack_us_per_event", n,
               lambda: [wire.pack_event_ids(b) for b in batches])
    probe.time("wire.unpack_us_per_event", n,
               lambda: [wire.unpack_event_ids(p) for p in payloads])

    def observe_ids():
        monitor = registry.new_monitor(MONITORED)
        for i, batch in enumerate(batches):
            monitor.observe_ids(batch, base_index=i * BATCH)

    def observe():
        monitor = registry.new_monitor(MONITORED)
        for i, event in enumerate(events):
            monitor.observe(event, index=i)

    probe.time("monitor.observe_ids_us_per_event", n, observe_ids)
    probe.time("monitor.observe_us_per_event", n, observe)

    async def submit():
        pool = ShardPool(4)
        await pool.start()
        router = pool.router("probe")
        for event in events:
            await pool.submit_to(router.shard_of(event.callee.name), _noop)
        await pool.flush()
        await pool.stop()

    probe.time("shards.submit_us_per_task", n, lambda: asyncio.run(submit()))

    key = "probe"
    records = [durability.encode_record(durability.REC_BIND, key, 0, 0,
                                        MONITORED.encode("utf-8"))]
    records += [
        durability.encode_record(durability.REC_LINE, key, i + 1, i,
                                 line.encode("utf-8"))
        for i, line in enumerate(lines)
    ]
    stores = []

    def append():
        store_dir = workdir / f"probe-log-{len(stores)}"
        store = durability.WorkerStore(store_dir)
        stores.append(store_dir)
        for record in records:
            store.append(0, record)
        store.close()

    probe.time("durability.append_us_per_record", len(records), append)
    probe.time("durability.recover_ms", 1,
               lambda: durability.recover(stores[0], key, registry), scale=1e3)

    samples = []
    for _ in range(REPEATS):
        probe.speed.sample()
        samples.append(_compile_in_child())
    probe.metrics["registry.compile_s"] = median(samples)

    spans = workdir / "probe-server-spans.jsonl"
    server = ServerProcess(http=True, spans=spans)
    server.start(probe.speed)
    try:
        probe.metrics.update(_probe_server(server, events, lines))
    finally:
        server.stop()
    batch_s = events_in = 0
    for entry in spans.read_text(encoding="utf-8").splitlines():
        record = json.loads(entry)
        if record["name"] == "service.batch":
            batch_s += record["end"] - record["start"]
            events_in += record["attrs"]["events"]
    probe.metrics["service.batch_us_per_event"] = batch_s / events_in * 1e6
    return probe.at_reference()


def _noop() -> None:
    pass


def _probe_server(server, events, lines) -> dict[str, float]:
    from repro import api
    from repro.obs.trace import span
    from repro.service import MonitorClient

    out: dict[str, float] = {}

    async def send():
        samples = []
        for _ in range(REPEATS):
            client = MonitorClient("127.0.0.1", server.port, spec=MONITORED, proto=2)
            await client.connect()
            with span("bench.client.send_event", units=len(events)):
                start = time.perf_counter()
                for event in events:
                    await client.send_event(event)
                samples.append(time.perf_counter() - start)
            await client.status()
            await client.close()
        return median(samples) / len(events) * 1e6

    out["client.send_us_per_event"] = asyncio.run(send())

    chunks = [lines[i:i + POST_LINES] for i in range(0, len(lines), POST_LINES)]
    with api.Gateway("127.0.0.1", server.port) as gateway:
        samples = []
        for chunk in chunks:
            with span("bench.api.send_events", units=len(chunk)):
                start = time.perf_counter()
                gateway.send_events("probe-api", chunk, spec=MONITORED)
                samples.append(time.perf_counter() - start)
    api_ms = median(samples) * 1e3
    out["api.send_events_ms_per_batch"] = api_ms

    conn = http.client.HTTPConnection("127.0.0.1", server.http_port, timeout=60)
    samples = []
    try:
        for chunk in chunks:
            body = json.dumps({"spec": MONITORED, "events": chunk}).encode("utf-8")
            with span("bench.gateway.post", units=len(chunk)):
                start = time.perf_counter()
                conn.request("POST", "/v1/sessions/probe-http/events", body,
                             {"Content-Type": "application/json"})
                conn.getresponse().read()
                samples.append(time.perf_counter() - start)
    finally:
        conn.close()
    out["gateway.http_ms_per_batch"] = median(samples) * 1e3 - api_ms
    return out


if __name__ == "__main__" and sys.argv[1:] == ["compile"]:
    print(_cold_compile_s())
