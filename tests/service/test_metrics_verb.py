"""The METRICS verb and the Prometheus scrape endpoint, end to end."""

import asyncio

from repro.obs.registry import use_registry
from repro.service import MonitorClient, MonitorServer, SpecRegistry

WRITE_SESSION = [
    "w1 -> o : OW",
    "w1 -> o : W(Data:d1)",
    "w1 -> o : W(Data:d2)",
    "w1 -> o : CW",
]


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        if "{" in name_labels:
            name, rest = name_labels.split("{", 1)
            labels = rest[:-1]
        else:
            name, labels = name_labels, ""
        out.setdefault(name, {})[labels] = float(value)
    return out


class TestMetricsVerb:
    def test_round_trip_exposes_all_layers(self, cast):
        async def run() -> str:
            with use_registry():
                registry = SpecRegistry([cast.write(), cast.read2()])
                async with MonitorServer(registry) as server:
                    async with MonitorClient(
                        "127.0.0.1", server.port, spec="Write"
                    ) as client:
                        for line in WRITE_SESSION:
                            await client.send_event(line)
                        return await client.metrics()

        text = asyncio.run(run())
        assert text.endswith("\n")
        assert "# TYPE" in text
        samples = parse_prometheus(text)

        # monitor layer: every event of the session is accounted for —
        # stepped inline before METRICS was read, with no barrier
        assert samples["repro_monitor_events_total"][""] == len(WRITE_SESSION)
        assert sum(samples["repro_monitor_steps_total"].values()) > 0

        # registry layer: interned-machine gauges are present and non-zero
        assert samples["repro_interned_machines"][""] >= 1

        # checker cache families are pre-declared even when untouched
        for family in (
            "repro_cache_hits_total",
            "repro_cache_misses_total",
        ):
            assert family in samples

        # histogram framing survived the wire: +Inf bucket == _count
        counts = samples["repro_event_check_seconds_count"]
        buckets = samples["repro_event_check_seconds_bucket"]
        for labels, count in counts.items():
            inf = f'{labels},le="+Inf"' if labels else 'le="+Inf"'
            assert buckets[inf] == count

    def test_metrics_leaves_session_usable(self, cast):
        async def run():
            with use_registry():
                registry = SpecRegistry([cast.write()])
                async with MonitorServer(registry) as server:
                    async with MonitorClient(
                        "127.0.0.1", server.port, spec="Write"
                    ) as client:
                        await client.send_event(WRITE_SESSION[0])
                        first = await client.metrics()
                        await client.send_event(WRITE_SESSION[1])
                        second = await client.metrics()
                        status = await client.status()
                        return first, second, status

        first, second, status = asyncio.run(run())
        assert status.ok and status.events == 2
        a = parse_prometheus(first)["repro_monitor_events_total"][""]
        b = parse_prometheus(second)["repro_monitor_events_total"][""]
        assert (a, b) == (1.0, 2.0)


class TestScrapeEndpoint:
    def test_http_get_returns_prometheus_text(self, cast):
        async def run() -> bytes:
            with use_registry():
                registry = SpecRegistry([cast.write()])
                async with MonitorServer(
                    registry, metrics_port=0
                ) as server:
                    assert server.metrics_port not in (None, 0)
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.metrics_port
                    )
                    writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                    await writer.drain()
                    data = await reader.read()
                    writer.close()
                    return data

        raw = asyncio.run(run())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"text/plain; version=0.0.4" in head
        samples = parse_prometheus(body.decode("utf-8"))
        assert samples["repro_interned_machines"][""] >= 1
        # Content-Length matches the body exactly (HTTP framing)
        length = next(
            int(l.split(b":")[1])
            for l in head.split(b"\r\n")
            if l.lower().startswith(b"content-length")
        )
        assert length == len(body)

    def test_no_metrics_port_means_no_endpoint(self, cast):
        async def run():
            with use_registry():
                registry = SpecRegistry([cast.write()])
                async with MonitorServer(registry) as server:
                    return server.metrics_port

        assert asyncio.run(run()) is None
