"""Service benchmark: wire-protocol monitoring throughput.

Measures end-to-end events/sec over localhost TCP: several concurrent
sessions each stream a clean ``Write``-spec workload and synchronise with
``STATUS`` at the end.  One server process steps every session inline on
one loop; ``--procs`` (benchmarks/bench_scaleout.py) is the parallelism
axis.

Runs under the pytest-benchmark harness *and* standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import asyncio
import time

from repro.paper.specs import PaperCast
from repro.service import MonitorClient, MonitorServer, SpecRegistry

SESSIONS = 6
EVENTS_PER_SESSION = 300

_WORKLOAD = None


def _workload() -> list[str]:
    """A clean per-session event script (OW W* CW cycles), as raw lines."""
    global _WORKLOAD
    if _WORKLOAD is None:
        lines = []
        i = 0
        while len(lines) < EVENTS_PER_SESSION:
            writer = f"w{i % 3}"
            lines.append(f"{writer} -> o : OW")
            lines.append(f"{writer} -> o : W(Data:d{i % 5})")
            lines.append(f"{writer} -> o : CW")
            i += 1
        _WORKLOAD = lines[:EVENTS_PER_SESSION]
    return _WORKLOAD


async def _blast() -> int:
    """Run the full workload against a fresh server; returns events sent."""
    registry = SpecRegistry([PaperCast().write()])
    lines = _workload()

    async def one_session(port: int) -> None:
        async with MonitorClient("127.0.0.1", port, spec="Write") as client:
            for line in lines:
                await client.send_event(line)
            status = await client.status()
            assert status.ok and status.events == len(lines)

    async with MonitorServer(registry) as server:
        await asyncio.gather(*(one_session(server.port) for _ in range(SESSIONS)))
        total = server.metrics.events_observed
    assert total == SESSIONS * len(lines)
    return total


def bench_service_throughput(benchmark):
    def run():
        return asyncio.run(_blast())

    total = benchmark(run)
    events_per_sec = total / benchmark.stats.stats.mean
    benchmark.extra_info["events_per_sec"] = round(events_per_sec)


def main() -> None:
    from repro.workload.results import maybe_write_bench

    start = time.perf_counter()
    total = asyncio.run(_blast())
    elapsed = time.perf_counter() - start
    print(
        f"{total} events in {elapsed:.3f}s "
        f"→ {total / elapsed:,.0f} events/sec"
    )
    runs = [
        {
            "label": "throughput",
            "events": total,
            "seconds": round(elapsed, 6),
            "events_per_sec": round(total / elapsed, 1),
        }
    ]
    path = maybe_write_bench(
        "service_throughput",
        {"sessions": SESSIONS, "events_per_session": EVENTS_PER_SESSION},
        runs,
    )
    if path is not None:
        print(f"→ {path}")


if __name__ == "__main__":
    main()
