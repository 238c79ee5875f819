"""The repository benchmark: four seeded workloads, one command.

    python3 perfbench/run.py --workload binary-events --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and builds nothing: the program under
test is ``src/repro``, started as separate processes.  The last line of
standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones (see ``README.md`` in this directory).
The line before it records the run's environment.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import SpeedProbe, Tally, median, percentile  # noqa: E402

WORKLOADS = ("binary-events", "text-durable", "http-batch", "check-claims")
#: Rounds (serving) or checker processes (check-claims) every run makes,
#: however short its --seconds.
MIN_ROUNDS = 3
#: The largest obligations of the paper's claims, timed per obligation.
OBLIGATIONS = ("L13", "T16", "T18", "L6", "T7")
E2E_UNITS = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "server_cpu_us_per_event": "us",
    "client_cpu_us_per_event": "us",
    "server_rss_mb": "MiB",
    "resume_s": "s",
    "check_s": "s",
    "check_rss_mb": "MiB",
}


def _percentiles(samples_s, notes: dict) -> dict[str, float]:
    p50, _ = percentile(samples_s, 0.5)
    p90, beyond = percentile(samples_s, 0.9)
    notes["verdict_samples"] = len(samples_s)
    notes["verdict_samples_beyond_p90"] = beyond
    return {"verdict_ms_p50": p50 * 1e3, "verdict_ms_p90": p90 * 1e3}


def serving_e2e(rounds, notes: dict, scaled: bool = True) -> dict[str, float]:
    """Medians over rounds; times at the reference speed when ``scaled``."""
    def f(r) -> float:
        return r.speed.factor if scaled else 1.0

    values = {
        "setup_s": median(r.setup_s * f(r) for r in rounds),
        "events_per_s": median(r.events / r.wall_s / f(r) for r in rounds),
        "server_cpu_us_per_event": median(
            r.server_cpu_s / r.events * 1e6 * f(r) for r in rounds
        ),
        "client_cpu_us_per_event": median(
            r.client_cpu_s / r.events * 1e6 * f(r) for r in rounds
        ),
        "server_rss_mb": median(r.server_rss_mb for r in rounds),
        "resume_s": median(r.resume_s * f(r) for r in rounds),
        "check_s": median(r.check["check_s"] * f(r) for r in rounds),
        "check_rss_mb": median(r.check["maxrss_mb"] for r in rounds),
    }
    values.update(_percentiles(
        [s * f(r) for r in rounds for s in r.latencies], notes
    ))
    return values


def checker_e2e(reports, notes: dict, scaled: bool = True) -> dict[str, float]:
    """check-claims: an operation is one obligation of the paper's claims."""
    def f(r) -> float:
        return r["speed_factor"] if scaled else 1.0

    values = {
        "setup_s": median(r["setup_s"] * f(r) for r in reports),
        "events_per_s": median(
            r["obligations"] / r["check_s"] / f(r) for r in reports
        ),
        "server_cpu_us_per_event": median(
            r["run_cpu_s"] / r["obligations"] * 1e6 * f(r) for r in reports
        ),
        "client_cpu_us_per_event": median(
            r["build_cpu_s"] / r["obligations"] * 1e6 * f(r) for r in reports
        ),
        "server_rss_mb": median(r["maxrss_mb"] for r in reports),
        "resume_s": median(r["launch_to_verdicts_s"] * f(r) for r in reports),
        "check_s": median(r["check_s"] * f(r) for r in reports),
        "check_rss_mb": median(r["maxrss_mb"] for r in reports),
    }
    # A verdict's latency is the time from engine start until it is
    # decided: obligations run in the paper's order, one after another.
    values.update(_percentiles(
        [t * f(r) for r in reports
         for t in itertools.accumulate(o[2] for o in r["outcomes"])],
        notes,
    ))
    return values


def _tally_claims(report: dict, tally: Tally) -> None:
    for ident, agrees, _, error in report["outcomes"]:
        tally.check(agrees, f"claim {ident} disagrees with the paper ({error})")


# -- the workloads -------------------------------------------------------------


def run_serving(workload, seed, seconds, trace, workdir, tally, collector):
    import serving

    shape = serving.SHAPES[workload]
    streams = serving.make_streams(shape, seed)
    bodies = serving.http_bodies(streams) if shape.framing == "http" else None
    plain, traced, counts = [], [], None
    deadline = time.perf_counter() + seconds

    def round_(index, spans_on, counting=False):
        spans = workdir / f"server-spans-{index}.jsonl" if spans_on else None
        with _traced(collector if spans_on else None, workload, index):
            return serving.one_round(
                workload, streams, bodies, workdir, index, tally,
                counts=counting, spans=spans,
            )

    index = 0
    if trace:
        # The traced run first counts work in a round of its own: the
        # counting relay and scrapes would weigh on the tracing overhead.
        rnd = round_(index, True, counting=True)
        counts = rnd.counts
        counts["happy_events"] = rnd.events
        counts["all_events"] = rnd.events + sum(s.tail_events for s in streams)
        index += 1
    while len(plain) + len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        # Then it alternates plain and traced rounds; the ratio of their
        # medians is the tracing overhead.
        spans_on = trace and len(traced) < len(plain)
        (traced if spans_on else plain).append(round_(index, spans_on))
        index += 1
    notes: dict = {"rounds": len(plain)}
    e2e = serving_e2e(plain, notes)
    raw = serving_e2e(plain, {}, scaled=False)
    notes.update(raw=raw, speed_factor=median(r.speed.factor for r in plain))
    if not trace:
        return e2e, notes
    layers = _serving_counts(counts)
    layers.update(_ratios(serving_e2e(traced, {}, scaled=False), raw))
    layers.update(_common_layers(seed, workdir, tally, collector))
    return layers, notes


def run_check_claims(seed, seconds, trace, workdir, tally, collector):
    from checking import PAPER_CLAIMS, run_checker

    reports = []
    deadline = time.perf_counter() + seconds
    while len(reports) < MIN_ROUNDS or time.perf_counter() < deadline:
        speed = SpeedProbe()
        report = run_checker(PAPER_CLAIMS, {}, speed)
        report["speed_factor"] = speed.factor
        _tally_claims(report, tally)
        reports.append(report)
    notes: dict = {"checker_processes": len(reports)}
    e2e = checker_e2e(reports, notes)
    raw = checker_e2e(reports, {}, scaled=False)
    notes.update(raw=raw, speed_factor=median(r["speed_factor"] for r in reports))
    if not trace:
        return e2e, notes
    layers = _serving_counts(None)
    layers.update(_common_layers(seed, workdir, tally, collector))
    # The traced checker of _common_layers is this workload's traced run.
    traced = [collector.checker_report]
    layers.update(_ratios(checker_e2e(traced, {}, scaled=False), raw))
    return layers, notes


# -- per-layer metrics (--trace 1) -----------------------------------------------


class _Collector:
    """The benchmark's own spans plus the traced checker's report."""

    def __init__(self) -> None:
        from repro.obs.export import InMemoryCollector

        self.spans = InMemoryCollector()
        self.checker_report: dict | None = None


@contextlib.contextmanager
def _traced(collector, workload: str, index: int):
    """Record the benchmark's spans for one round (plain rounds: none)."""
    if collector is None:
        yield
        return
    from repro.obs.trace import span, use_sink

    with use_sink(collector.spans), span("bench.round", workload=workload,
                                         index=index):
        yield


def _serving_counts(counts: dict | None) -> dict[str, float]:
    """Work counts of the traced run's counting round; 0 = layer bypassed."""
    names = (
        "client.frames_per_kevent", "wire.bytes_per_event",
        "shards.tasks_per_kevent", "durability.records_per_kevent",
        "durability.fsyncs_per_kevent", "durability.bytes_per_event",
        "durability.scan_bytes_per_resume", "gateway.request_bytes_per_event",
    )
    out = dict.fromkeys(names, 0.0)
    if counts is None:
        return out
    happy, sent = counts["happy_events"], counts["all_events"]
    before, after = (_scrape(text) for text in counts["metrics"])

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    # The relay sees whole sessions (tails included); the scrapes bracket
    # the happy segments only.
    if "client_frames" in counts:
        out["client.frames_per_kevent"] = counts["client_frames"] / sent * 1e3
        out["wire.bytes_per_event"] = counts["client_bytes"] / sent
    out["shards.tasks_per_kevent"] = delta("repro_shard_tasks_total") / happy * 1e3
    out["durability.records_per_kevent"] = (
        delta("repro_durability_records_total") / happy * 1e3
    )
    out["durability.fsyncs_per_kevent"] = (
        delta("repro_durability_fsync_seconds_count") / happy * 1e3
    )
    out["durability.bytes_per_event"] = delta("repro_durability_bytes_total") / happy
    out["durability.scan_bytes_per_resume"] = float(counts.get("scan_bytes", 0))
    if "request_bytes" in counts:
        out["gateway.request_bytes_per_event"] = counts["request_bytes"] / happy
    return out


def _scrape(text: str | None) -> dict[str, float]:
    """Unlabelled Prometheus samples by name (labelled ones summed)."""
    values: dict[str, float] = {}
    for line in (text or "").splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        name = name.split("{", 1)[0]
        try:
            values[name] = values.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return values


def _ratios(traced: dict, plain: dict) -> dict[str, float]:
    return {f"trace_overhead.{k}": traced[k] / plain[k] for k in E2E_UNITS}


def _common_layers(seed, workdir, tally, collector) -> dict[str, float]:
    """Layer probes and the traced paper-claims checker, on every workload.

    The probes step the seed's first binary-events session stream, so
    every workload probes the same events.
    """
    import serving
    from checking import PAPER_CLAIMS, run_checker
    from layers import probe_layers
    from repro.obs.trace import use_sink

    stream = serving.make_streams(serving.SHAPES["binary-events"], seed)[0]
    events = [e for segment in stream.segments for e in segment]
    with use_sink(collector.spans):
        out = probe_layers(events, workdir)
    speed = SpeedProbe()
    report = run_checker(PAPER_CLAIMS, {}, speed, trace=True)
    _tally_claims(report, tally)
    collector.checker_report = report
    f = speed.factor
    for ident in OBLIGATIONS:
        out[f"checker.obligation_s.{ident}"] = report["obligation_span_s"][ident] * f
    self_s = report["self_s"]
    out["compile.traceset_dfa_self_s"] = self_s["compile.traceset_dfa"] * f
    out["normalize.self_s"] = f * sum(
        v for k, v in self_s.items() if k.startswith("normalize.")
    )
    out["elaborate.self_s"] = f * sum(
        v for k, v in self_s.items() if k.startswith("elaborate")
    )
    out["automata.states_explored"] = float(report["states_explored"])
    return out


# -- entry point -----------------------------------------------------------------


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((harness.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.checkout_ok():
        print(f"no program under test: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    # A terminated run still unwinds: every round stops its processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    harness.pin_benchmark()
    workdir = harness.new_workdir(f"{args.workload}-")
    tally = Tally()
    try:
        env = harness.environment(workdir)
        collector = _Collector() if args.trace else None
        if args.workload == "check-claims":
            values, notes = run_check_claims(
                args.seed, args.seconds, args.trace, workdir, tally, collector
            )
        else:
            values, notes = run_serving(
                args.workload, args.seed, args.seconds, args.trace,
                workdir, tally, collector,
            )
        if args.trace:
            _write_trace(args, collector, workdir)
        units = _per_layer_units() if args.trace else E2E_UNITS
    finally:
        harness.remove_workdir(workdir)
    harness.emit({"env": env, "notes": notes, "workload": args.workload,
                  "seed": args.seed})
    harness.emit({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    })
    return 0


def _write_trace(args, collector, workdir) -> None:
    """Keep the traced run's spans: the benchmark's own and the server's."""
    out_dir = harness.ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for record in collector.spans.records:
            fh.write(json.dumps({"source": "benchmark", **record.as_dict()},
                                default=repr) + "\n")
        for spans in sorted(workdir.glob("*spans*.jsonl")):
            for line in spans.read_text(encoding="utf-8").splitlines():
                fh.write(json.dumps({"source": "server", **json.loads(line)}) + "\n")
        report = collector.checker_report or {}
        fh.write(json.dumps({"source": "checker", "self_s": report.get("self_s"),
                             "obligation_s": report.get("obligation_span_s")})
                 + "\n")


if __name__ == "__main__":
    sys.exit(main())
