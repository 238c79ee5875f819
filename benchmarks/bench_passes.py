"""Normalization pipeline benchmarks: exploration work, raw vs normalized.

Tree rewrites are bijections on product states, so the pipeline does not
shrink the compiled DFA — the win is *work per explored state*:

* **machine_steps** — component-machine steps taken during exploration
  (a pruned ``TrueMachine`` part is one fewer machine stepped per event);
* **hidden_events** — hidden candidate events instantiated per state
  (the pruned hidden pool skips patterns no part can observe);
* **wall time** for :func:`~repro.checker.compile.traceset_dfa`.

Workloads are the paper's compositions (Examples 4–5) and the two-phase
commit case-study cell.  The harness asserts, not just reports:

* raw and normalized DFAs are language-equal on every workload;
* the composed / hidden-event workloads (``Read ‖ Client``,
  ``Read ‖ Write``) do strictly fewer machine steps when normalized;
* two syntactic variants of one spec share a single cache entry when
  normalized, while the raw compiler stores them separately.

Runs under the pytest-benchmark harness *and* standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_passes.py -q
    PYTHONPATH=src python benchmarks/bench_passes.py
"""

from __future__ import annotations

import tempfile
import time

import pytest

from repro.automata.ops import equivalence_counterexample
from repro.casestudies.twophase import TwoPhaseCast
from repro.checker.cache import MachineCache, use_cache
from repro.checker.compile import traceset_dfa
from repro.checker.universe import FiniteUniverse
from repro.core.alphabet import Alphabet
from repro.core.composition import compose
from repro.core.patterns import EventPattern
from repro.core.sorts import Sort
from repro.core.tracesets import MachineTraceSet
from repro.core.values import ObjectId
from repro.machines.boolean import AndMachine, TrueMachine
from repro.machines.counting import CountingMachine, Linear, method_counter
from repro.obs import collect_exploration
from repro.paper.specs import PaperCast


def _workloads():
    """name → (trace set, universe); all composed or hidden-event heavy."""
    cast = PaperCast()
    tp = TwoPhaseCast()
    out = {}
    for name, pair in {
        "read||client": (cast.read(), cast.client()),
        "read||write": (cast.read(), cast.write()),
        "write_acc||client": (cast.write_acc(), cast.client()),
    }.items():
        composed = compose(*pair)
        out[name] = (
            composed.traces,
            FiniteUniverse.for_specs(composed, env_objects=1),
        )
    cell = tp.cell_spec()
    out["two-phase-cell"] = (
        cell.traces,
        FiniteUniverse.for_specs(cell, env_objects=0, data_values=0),
    )
    return out


#: Workloads where normalization must *strictly* reduce component-step
#: work: both compose a trivially-true part (``T(Read) = Seq[α]``).
MUST_IMPROVE = ("read||client", "read||write")


def _explore(ts, universe, normalize: bool):
    with collect_exploration() as stats:
        start = time.perf_counter()
        dfa = traceset_dfa(ts, universe, normalize=normalize)
        wall = time.perf_counter() - start
    return dfa, stats.snapshot(), wall


def _compare(name, ts, universe):
    raw_dfa, raw, raw_wall = _explore(ts, universe, normalize=False)
    norm_dfa, norm, norm_wall = _explore(ts, universe, normalize=True)
    assert equivalence_counterexample(raw_dfa, norm_dfa) is None, (
        f"{name}: normalization changed the language"
    )
    if name in MUST_IMPROVE:
        assert norm["machine_steps"] < raw["machine_steps"], (
            f"{name}: normalized exploration did not reduce machine steps "
            f"({norm['machine_steps']} vs {raw['machine_steps']})"
        )
    return raw, raw_wall, norm, norm_wall


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["read||client", "read||write",
                                  "write_acc||client", "two-phase-cell"])
def bench_passes_exploration(benchmark, name):
    ts, universe = _workloads()[name]
    raw, _, norm, _ = _compare(name, ts, universe)

    def timed():
        return traceset_dfa(ts, universe, normalize=True)

    benchmark.pedantic(timed, rounds=3, iterations=1)
    benchmark.extra_info["raw_machine_steps"] = raw["machine_steps"]
    benchmark.extra_info["norm_machine_steps"] = norm["machine_steps"]
    benchmark.extra_info["raw_hidden_events"] = raw["hidden_events"]
    benchmark.extra_info["norm_hidden_events"] = norm["hidden_events"]


def bench_passes_cache_variants(benchmark):
    o, c = ObjectId("o"), ObjectId("c")
    alpha = Alphabet.of(
        EventPattern(Sort.values(o), Sort.values(c), "A", ())
    )
    leaf = CountingMachine(
        (method_counter("A"),), Linear((1,), -1, "<="), saturate_at=2
    )
    plain = MachineTraceSet(alpha, leaf)
    variant = MachineTraceSet(alpha, AndMachine((TrueMachine(), leaf)))
    universe = FiniteUniverse.for_alphabets([alpha], env_objects=1)

    def share():
        with tempfile.TemporaryDirectory() as d:
            raw_cache = MachineCache(d + "/raw")
            with use_cache(raw_cache):
                traceset_dfa(plain, universe, normalize=False)
                traceset_dfa(variant, universe, normalize=False)
            norm_cache = MachineCache(d + "/norm")
            with use_cache(norm_cache):
                traceset_dfa(plain, universe, normalize=True)
                traceset_dfa(variant, universe, normalize=True)
            return raw_cache.stats.hits, norm_cache.stats.hits

    raw_hits, norm_hits = benchmark.pedantic(share, rounds=1, iterations=1)
    benchmark.extra_info["raw_hits"] = raw_hits
    benchmark.extra_info["normalized_hits"] = norm_hits
    assert raw_hits == 0 and norm_hits >= 1, (
        f"expected cross-variant sharing only when normalized "
        f"(raw {raw_hits}, normalized {norm_hits})"
    )


# ----------------------------------------------------------------------
# standalone
# ----------------------------------------------------------------------


def main() -> None:
    print("normalization pipeline: exploration work, raw vs normalized")
    print(
        f"  {'workload':<20} {'steps raw':>10} {'steps norm':>10} "
        f"{'hidden raw':>10} {'hidden norm':>11} {'ms raw':>8} {'ms norm':>8}"
    )
    for name, (ts, universe) in _workloads().items():
        raw, raw_wall, norm, norm_wall = _compare(name, ts, universe)
        marker = "  (must improve)" if name in MUST_IMPROVE else ""
        print(
            f"  {name:<20} {raw['machine_steps']:>10} "
            f"{norm['machine_steps']:>10} {raw['hidden_events']:>10} "
            f"{norm['hidden_events']:>11} {raw_wall * 1e3:>8.1f} "
            f"{norm_wall * 1e3:>8.1f}{marker}"
        )
    print("  all workloads: raw and normalized DFAs are language-equal")

    class _Bench:
        extra_info: dict = {}

        @staticmethod
        def pedantic(fn, rounds=1, iterations=1):
            return fn()

    bench_passes_cache_variants(_Bench())
    print(
        "  cache variants: raw 0 hits, normalized "
        f"{_Bench.extra_info['normalized_hits']} hit(s) — two syntactic "
        "variants share one entry"
    )


if __name__ == "__main__":
    main()
