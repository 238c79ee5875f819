"""Self-test of the benchmark: names, units, correctness, repeatable counts.

    python3 perfbench/selftest.py            # every workload, about 3 minutes
    python3 perfbench/selftest.py http-batch  # one workload

For each workload it makes one short untraced run and two short traced
runs of one seed, and fails unless every run is correct with no failed
operation, every metric of ``BENCHMARK.json`` comes with its unit, and
every count metric of the two traced runs is identical.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SEED = 7
SECONDS = "1"


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        text=True, capture_output=True, timeout=900,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _check_shape(result: dict, wanted: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        problems.append(f"{label}: metrics/units differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}, units "
                        f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    return problems


def main(argv: list[str]) -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    for workload in workloads:
        problems += _check_shape(_run(workload, 0), spec["end_to_end"],
                                 f"{workload} untraced")
        first, second = _run(workload, 1), _run(workload, 1)
        for label, result in (("traced #1", first), ("traced #2", second)):
            problems += _check_shape(result, spec["per_layer"],
                                     f"{workload} {label}")
        for name in counts:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: count {name} {a} != {b}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
