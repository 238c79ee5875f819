"""Observability overhead gates: disabled tracing must be (nearly) free.

``repro.obs`` threads spans and metrics through every layer, and the
design contract (DESIGN.md §11) is that the *disabled* configuration —
no sink installed, the production default — costs one module-global
truthiness check per instrumentation point.  This harness pins that
contract on the hottest workload the system has: dense online stepping
(``DFA.run_ids``) over the paper's composed ``Read ‖ Write`` machine.

Three timed variants of the same chunked stepping loop:

* **plain** — no instrumentation at all (the pre-obs baseline);
* **obs-off** — a ``span(...)`` open/close plus a pre-resolved counter
  increment per chunk, with **no sink installed** (the disabled fast
  path);
* **obs-on** — the same loop with an in-memory span collector installed.

Spans are opened per *chunk* of :data:`CHUNK` steps, not per step —
matching how the system instruments itself: phase boundaries (compile,
obligation, pipeline pass), never inner automaton-step loops.  The
asserted gates:

* obs-off within :data:`OFF_TOLERANCE` of plain — no regression beyond
  timer noise when nobody is observing;
* obs-on within :data:`ON_TOLERANCE` of plain — enabling tracing at the
  system's span granularity stays within the 5 % budget.

Runs under the pytest-benchmark harness *and* standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q
    PYTHONPATH=src python benchmarks/bench_obs.py [--quick]
"""

from __future__ import annotations

import random
import sys
import time

from repro.automata.dfa import DFA
from repro.checker.compile import traceset_dfa
from repro.checker.universe import FiniteUniverse
from repro.core.composition import compose
from repro.obs.export import InMemoryCollector
from repro.obs.registry import get_registry
from repro.obs.trace import span, tracing_enabled, use_sink
from repro.paper.specs import PaperCast

#: Steps per span — the coarsest-grained phase the system instruments.
CHUNK = 5_000

#: Event-stream length and timing repetitions (full / ``--quick``).
STREAM_LEN = 400_000
QUICK_STREAM_LEN = 100_000
ROUNDS = 7

#: Allowed slowdown ratios versus the uninstrumented baseline.
OFF_TOLERANCE = 1.05
ON_TOLERANCE = 1.05


def _workload() -> DFA:
    cast = PaperCast()
    composed = compose(cast.read(), cast.write())
    universe = FiniteUniverse.for_specs(composed, env_objects=1)
    return traceset_dfa(composed.traces, universe).trim()


def _encoded_stream(dfa: DFA, length: int) -> list[int]:
    rng = random.Random(20260806)
    return dfa.table.encode(rng.choices(dfa.letters, k=length))


def _plain_loop(dfa: DFA, ids: list[int]):
    def run() -> int:
        state = dfa.start
        for i in range(0, len(ids), CHUNK):
            state = dfa.run_ids(ids[i : i + CHUNK], state)
        return state

    return run


def _instrumented_loop(dfa: DFA, ids: list[int]):
    # Resolved once, incremented per chunk — how every hot path uses the
    # registry (CheckerMetrics, the monitor sessions).
    chunks = get_registry().counter(
        "bench_obs_chunks_total", help="chunks stepped by bench_obs"
    )

    def run() -> int:
        state = dfa.start
        for i in range(0, len(ids), CHUNK):
            with span("bench.chunk"):
                state = dfa.run_ids(ids[i : i + CHUNK], state)
            chunks.inc()
        return state

    return run


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(length: int, rounds: int) -> dict:
    """plain/off/on best-of timings for one stream; sanity-checked."""
    dfa = _workload()
    ids = _encoded_stream(dfa, length)
    plain = _plain_loop(dfa, ids)
    instrumented = _instrumented_loop(dfa, ids)

    assert not tracing_enabled(), "a leaked sink would poison the off gate"
    assert plain() == instrumented(), "instrumentation changed the run"

    plain_s = _best_of(plain, rounds)
    off_s = _best_of(instrumented, rounds)
    collector = InMemoryCollector()
    with use_sink(collector):
        on_s = _best_of(instrumented, rounds)
    expected_spans = rounds * ((len(ids) + CHUNK - 1) // CHUNK)
    assert len(collector.records) == expected_spans, (
        "obs-on must record one span per chunk"
    )
    return {
        "states": dfa.n_states,
        "letters": dfa.n_letters,
        "steps": len(ids),
        "plain_s": plain_s,
        "off_s": off_s,
        "on_s": on_s,
        "off_ratio": off_s / plain_s,
        "on_ratio": on_s / plain_s,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------


def bench_obs_overhead(benchmark):
    result = _measure(QUICK_STREAM_LEN, rounds=5)
    dfa = _workload()
    ids = _encoded_stream(dfa, QUICK_STREAM_LEN)
    benchmark.pedantic(_plain_loop(dfa, ids), rounds=3, iterations=1)
    benchmark.extra_info.update(
        {k: v for k, v in result.items() if k.endswith("_ratio")}
    )
    assert result["off_ratio"] <= OFF_TOLERANCE, (
        f"disabled tracing regressed stepping: {result['off_ratio']:.3f}x "
        f"(budget {OFF_TOLERANCE:.2f}x)"
    )
    assert result["on_ratio"] <= ON_TOLERANCE, (
        f"enabled tracing exceeded the overhead budget: "
        f"{result['on_ratio']:.3f}x (budget {ON_TOLERANCE:.2f}x)"
    )


# ----------------------------------------------------------------------
# standalone
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    length = QUICK_STREAM_LEN if quick else STREAM_LEN
    rounds = 5 if quick else ROUNDS
    print("observability overhead: chunked dense stepping, best of rounds")
    result = _measure(length, rounds)
    rate = result["steps"] / result["plain_s"] / 1e6
    print(
        f"  workload: read||write trimmed "
        f"({result['states']} states, {result['letters']} letters), "
        f"{result['steps']} steps in chunks of {CHUNK}, {rate:.1f} Mstep/s"
    )
    print(
        f"  {'variant':<10} {'best ms':>9} {'vs plain':>9}   gate"
    )
    rows = [
        ("plain", result["plain_s"], 1.0, ""),
        ("obs-off", result["off_s"], result["off_ratio"], f"<= {OFF_TOLERANCE:.2f}x"),
        ("obs-on", result["on_s"], result["on_ratio"], f"<= {ON_TOLERANCE:.2f}x"),
    ]
    for name, seconds, ratio, gate in rows:
        print(
            f"  {name:<10} {seconds * 1e3:>9.2f} {ratio:>8.3f}x   {gate}"
        )
    failures = []
    if result["off_ratio"] > OFF_TOLERANCE:
        failures.append(
            f"obs-off {result['off_ratio']:.3f}x > {OFF_TOLERANCE:.2f}x"
        )
    if result["on_ratio"] > ON_TOLERANCE:
        failures.append(
            f"obs-on {result['on_ratio']:.3f}x > {ON_TOLERANCE:.2f}x"
        )
    if failures:
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("  both gates hold: disabled tracing is free, enabled is within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
