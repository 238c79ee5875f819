"""Workload benchmarks: oracle-checked scenario throughput.

End-to-end events/sec of `repro.workload.run_workload` — generator →
wire protocol → session monitor → verdict — for each corpus scenario,
fault-free vs faulted.  Every measured run also *checks* itself: the
report must show 100% oracle agreement, so the number is meaningless
unless the monitoring was correct.

Runs under the pytest-benchmark harness *and* standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_workload.py -q
    PYTHONPATH=src python benchmarks/bench_workload.py

Standalone, set ``REPRO_BENCH_DIR`` to persist one
``BENCH_workload_<scenario>.json`` per scenario (repro-bench/1 schema).
"""

from __future__ import annotations

import time

import pytest

from repro.workload import FaultSpec, maybe_write_bench, run_workload

SCENARIOS = ("two_phase_dynamic", "pubsub_fanout", "leader_election")
FAULTS = FaultSpec(reorder=0.02, dup=0.02, drop=0.02)
SEED = 2026
SESSIONS = 4
EVENTS = 250


def _run(scenario: str, faults: FaultSpec | None = None):
    report = run_workload(
        scenario, seed=SEED, faults=faults, sessions=SESSIONS, events=EVENTS
    )
    assert report.all_agree, report.describe()
    return report


@pytest.mark.parametrize("scenario", SCENARIOS)
def bench_workload_fault_free(benchmark, scenario):
    report = benchmark(lambda: _run(scenario))
    benchmark.extra_info["events_per_sec"] = round(report.events_per_sec)


@pytest.mark.parametrize("scenario", SCENARIOS)
def bench_workload_faulted(benchmark, scenario):
    report = benchmark(lambda: _run(scenario, FAULTS))
    benchmark.extra_info["events_per_sec"] = round(report.events_per_sec)
    benchmark.extra_info["faults"] = FAULTS.describe()


def main() -> None:
    for scenario in SCENARIOS:
        runs = []
        for label, faults in (("fault-free", None), ("faulted", FAULTS)):
            start = time.perf_counter()
            report = _run(scenario, faults)
            elapsed = time.perf_counter() - start
            runs.append(report.run_record(label))
            print(
                f"{scenario:18s} {label:10s}: {report.events_total} events "
                f"→ {report.events_per_sec:,.0f} events/sec "
                f"(wall {elapsed:.3f}s, agreement "
                f"{report.agreement:.0%})"
            )
        path = maybe_write_bench(
            f"workload_{scenario}",
            {
                "scenario": scenario,
                "seed": SEED,
                "sessions": SESSIONS,
                "events": EVENTS,
                "faults": FAULTS.as_dict(),
                "mode": "in-process",
            },
            runs,
        )
        if path is not None:
            print(f"  → {path}")


if __name__ == "__main__":
    main()
