"""Dense automata core benchmarks: integer stepping vs dict-of-dicts.

The dense core's bet is *encode once, step many*: an event stream is
hashed into letter ids at the boundary
(:meth:`~repro.automata.letters.LetterTable.encode`) and every subsequent
transition is two array reads (``dense[state * k + letter_id]``), where
the legacy representation hashed a structured
:class:`~repro.core.events.Event` into a per-state dict on *every* step.
The product kernel makes the same trade: operand rows are flat array
slices indexed by precomputed letter columns, with no event hashing at
all.

Workloads are the paper's composed ``Read ‖ Write`` (Example 4 shape) and
the two-phase commit case-study coordinator.  The stream is encoded once
*outside* the stepping timer — exactly how the online path works: the
service encodes each arriving event once, and stepping is the per-machine
hot loop — and the encode cost is reported separately through
``repro.obs`` exploration stats.  The harness **asserts**, not just reports:

* dense stepping is strictly faster than the dict-of-dicts walk on every
  workload (steps/sec, best of N);
* the dense product kernel is strictly faster than the dict-based
  product and reaches the same state count and language;
* the encode-vs-step ratio is visible in the ``repro.obs`` exploration
  stats: one encode per stream event, many dense steps, never the reverse.

Runs under the pytest-benchmark harness *and* standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_dense.py -q
    PYTHONPATH=src python benchmarks/bench_dense.py [--quick]
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from repro.automata.dfa import DFA
from repro.automata.ops import equivalence_counterexample, intersection, minimize
from repro.casestudies.twophase import TwoPhaseCast
from repro.checker.compile import traceset_dfa
from repro.checker.universe import FiniteUniverse
from repro.core.composition import compose
from repro.obs import collect_exploration
from repro.paper.specs import PaperCast

#: Event-stream length and timing repetitions (full / ``--quick``).
STREAM_LEN = 200_000
QUICK_STREAM_LEN = 40_000
ROUNDS = 3


def _workloads() -> dict[str, DFA]:
    """name → compiled DFA; trimmed so every state is reachable."""
    cast = PaperCast()
    composed = compose(cast.read(), cast.write())
    u = FiniteUniverse.for_specs(composed, env_objects=1)
    coord = TwoPhaseCast().coordinator_spec()
    cu = FiniteUniverse.for_specs(coord, env_objects=1, data_values=1)
    return {
        "read||write": traceset_dfa(composed.traces, u).trim(),
        "twophase-coord": traceset_dfa(coord.traces, cu).trim(),
    }


def _stream(dfa: DFA, length: int) -> list:
    """A deterministic event stream over the DFA's letters."""
    rng = random.Random(20260806)
    return rng.choices(dfa.letters, k=length)


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# stepping: encode-once dense run vs per-event dict hashing
# ----------------------------------------------------------------------


def _compare_stepping(dfa: DFA, stream: list, rounds: int = ROUNDS):
    rows = dfa.transitions  # materialize the dict shim outside the timer
    start_state = dfa.start
    # Encoded once, outside the timer — the boundary cost one event
    # arrival pays regardless of how many machines then step on it.
    ids = dfa.table.encode(stream)

    def dict_walk():
        state = start_state
        for e in stream:
            state = rows[state][e]
        return state

    def dense_walk():
        return dfa.run_ids(ids, start_state)

    assert dense_walk() == dict_walk(), "representations disagree on the stream"
    dict_s = _best_of(dict_walk, rounds)
    dense_s = _best_of(dense_walk, rounds)
    return dict_s, dense_s


# ----------------------------------------------------------------------
# product: dense kernel vs the dict-based construction it replaced
# ----------------------------------------------------------------------


def _dict_product_states(a_rows, b_rows, a: DFA, b: DFA) -> int:
    """The pre-dense product: dict rows keyed by events, pair exploration."""
    letters = a.letters
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    out = []
    i = 0
    while i < len(order):
        qa, qb = order[i]
        ra, rb = a_rows[qa], b_rows[qb]
        row = {}
        for e in letters:
            t = (ra[e], rb[e])
            j = index.get(t)
            if j is None:
                j = len(order)
                index[t] = j
                order.append(t)
            row[e] = j
        out.append(row)
        i += 1
    return len(out)


def _compare_product(dfa: DFA, rounds: int = ROUNDS):
    small = minimize(dfa)
    a_rows, b_rows = dfa.transitions, small.transitions

    def dense_product():
        return intersection(dfa, small)

    def dict_product():
        return _dict_product_states(a_rows, b_rows, dfa, small)

    produced = dense_product()
    assert produced.n_states == dict_product(), "product state counts differ"
    assert equivalence_counterexample(produced, dfa) is None, (
        "L(A ∩ min(A)) must equal L(A)"
    )
    dict_s = _best_of(dict_product, rounds)
    dense_s = _best_of(dense_product, rounds)
    return dict_s, dense_s


def _encode_step_ratio(dfa: DFA, stream: list) -> dict:
    with collect_exploration() as stats:
        dfa.run_ids(dfa.table.encode(stream), dfa.start)
        intersection(dfa, minimize(dfa))
    snap = stats.snapshot()
    assert snap["letters_encoded"] == len(stream), (
        "each stream event must be encoded exactly once"
    )
    assert snap["dense_steps"] >= len(stream), (
        "every encoded event must step densely at least once"
    )
    return snap


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["read||write", "twophase-coord"])
def bench_dense_stepping(benchmark, name):
    dfa = _workloads()[name]
    stream = _stream(dfa, QUICK_STREAM_LEN)
    dict_s, dense_s = _compare_stepping(dfa, stream)
    benchmark.pedantic(
        lambda: dfa.run_ids(dfa.table.encode(stream), dfa.start),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["dict_steps_per_sec"] = len(stream) / dict_s
    benchmark.extra_info["dense_steps_per_sec"] = len(stream) / dense_s
    assert dense_s < dict_s, (
        f"{name}: dense stepping must beat the dict walk "
        f"({dense_s:.4f}s vs {dict_s:.4f}s)"
    )


@pytest.mark.parametrize("name", ["read||write", "twophase-coord"])
def bench_dense_product(benchmark, name):
    dfa = _workloads()[name]
    dict_s, dense_s = _compare_product(dfa)
    small = minimize(dfa)
    benchmark.pedantic(lambda: intersection(dfa, small), rounds=3, iterations=1)
    benchmark.extra_info["dict_seconds"] = dict_s
    benchmark.extra_info["dense_seconds"] = dense_s
    assert dense_s < dict_s, (
        f"{name}: dense product must beat the dict product "
        f"({dense_s:.4f}s vs {dict_s:.4f}s)"
    )


# ----------------------------------------------------------------------
# standalone
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    length = QUICK_STREAM_LEN if quick else STREAM_LEN
    rounds = 2 if quick else ROUNDS
    failures = []
    print("dense automata core: integer stepping vs dict-of-dicts")
    print(
        f"  {'workload':<16} {'states':>6} {'letters':>7} "
        f"{'dict Mstep/s':>12} {'dense Mstep/s':>13} {'step ×':>7} "
        f"{'dict prod ms':>12} {'dense prod ms':>13} {'prod ×':>7}"
    )
    for name, dfa in _workloads().items():
        stream = _stream(dfa, length)
        dict_s, dense_s = _compare_stepping(dfa, stream, rounds)
        pdict_s, pdense_s = _compare_product(dfa, rounds)
        step_ratio = dict_s / dense_s
        prod_ratio = pdict_s / pdense_s
        print(
            f"  {name:<16} {dfa.n_states:>6} {dfa.n_letters:>7} "
            f"{len(stream) / dict_s / 1e6:>12.2f} "
            f"{len(stream) / dense_s / 1e6:>13.2f} {step_ratio:>6.2f}x "
            f"{pdict_s * 1e3:>12.2f} {pdense_s * 1e3:>13.2f} "
            f"{prod_ratio:>6.2f}x"
        )
        if step_ratio <= 1.0:
            failures.append(f"{name}: dense stepping not faster ({step_ratio:.2f}x)")
        if prod_ratio <= 1.0:
            failures.append(f"{name}: dense product not faster ({prod_ratio:.2f}x)")
        snap = _encode_step_ratio(dfa, stream)
        print(
            f"    stats: {snap['letters_encoded']} letters encoded, "
            f"{snap['dense_steps']} dense steps "
            f"({snap['dense_steps'] / max(1, snap['letters_encoded']):.2f} "
            f"steps per encode)"
        )
    if failures:
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("  all workloads: dense strictly faster on stepping and product")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
