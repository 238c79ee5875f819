"""The checker under test: one fresh process deciding one obligation list.

Run as a script this is the child process: it builds the obligations of
an :class:`~repro.checker.engine.ObligationSource`, prints ``ready``,
runs them through :class:`~repro.checker.engine.ObligationEngine` with
``jobs=1`` and no machine cache, and prints one JSON line with its
timings, CPU, peak RSS and every outcome.  With ``--trace`` it also
collects the program's own ``repro.obs`` spans and exploration counts.

Imported, :func:`run_checker` launches such a child and times it from
outside: launch until ``ready`` is the set-up time, launch until the
result line arrives is the time until every verdict is back.

    PYTHONPATH=src python3 perfbench/checking.py repro.paper.claims:build_obligations
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

PAPER_CLAIMS = "repro.paper.claims:build_obligations"
SCENARIO_CLAIMS = "repro.workload.scenarios:scenario_obligations"
#: The paper's own OUN document, elaborated when tracing (the claims build
#: their specifications in Python and never reach the elaborator).
PAPER_DOCUMENT = Path("examples") / "readers_writers.oun"


def run_checker(factory: str, kwargs: dict, speed, *, trace: bool = False) -> dict:
    """Launch one checker child; returns its report plus outside timings.

    While it waits, the benchmark process samples the host speed into
    ``speed`` (a :class:`harness.SpeedProbe`), on its own CPU.
    """
    from harness import ROOT, LineReader, child_env, pin_child

    cmd = [sys.executable, str(Path(__file__).resolve()), factory, json.dumps(kwargs)]
    if trace:
        cmd.append("--trace")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, bufsize=0,
        preexec_fn=pin_child,
    )
    try:
        reader = LineReader(proc, speed)
        ready = reader.readline(timeout=60)
        setup = time.perf_counter() - start
        result = reader.readline(timeout=90)
        done = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"checker child failed (exit {code}): {ready!r}")
    report = json.loads(result)
    report["setup_s"] = setup
    report["launch_to_verdicts_s"] = done
    return report


def _self_times(records) -> dict[str, float]:
    """Span name → summed self time (duration minus direct children)."""
    children = defaultdict(float)
    for record in records:
        if record.parent_id is not None:
            children[record.parent_id] += record.seconds
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        totals[record.name] += record.seconds - children[record.span_id]
    return dict(totals)


def _child(factory: str, kwargs: dict, trace: bool) -> dict:
    import contextlib
    import resource

    from repro.checker.engine import EngineConfig, ObligationEngine, ObligationSource

    source = ObligationSource.of(factory, **kwargs)
    obligations = source.build()
    # Interpreter start, imports and building: what a caller pays before
    # the engine decides anything.
    build_cpu = time.process_time()
    print("ready", flush=True)

    engine = ObligationEngine(EngineConfig(jobs=1, cache_dir=None))
    with contextlib.ExitStack() as stack:
        if trace:
            from repro.obs.exploration import collect_exploration
            from repro.obs.export import InMemoryCollector
            from repro.obs.trace import use_sink

            collector = stack.enter_context(use_sink(InMemoryCollector()))
            explored = stack.enter_context(collect_exploration())
        cpu = time.process_time()
        start = time.perf_counter()
        run = engine.run(source)
        wall = time.perf_counter() - start
        run_cpu = time.process_time() - cpu
        if trace:
            from repro import api

            api.load(PAPER_DOCUMENT.read_text(encoding="utf-8"))
    report = {
        "obligations": len(obligations),
        "build_cpu_s": build_cpu,
        "check_s": wall,
        "run_cpu_s": run_cpu,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": [
            [o.obligation.ident, o.agrees, o.seconds, o.error]
            for o in run.session.outcomes
        ],
    }
    if trace:
        records = list(collector.records)
        report["self_s"] = _self_times(records)
        report["obligation_span_s"] = {
            r.attrs["ident"]: r.seconds
            for r in records
            if r.name == "engine.obligation"
        }
        report["states_explored"] = explored.dfa_states
    return report


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--trace"]
    print(
        json.dumps(_child(args[0], json.loads(args[1]), "--trace" in sys.argv)),
        flush=True,
    )
