"""Runner tests: live service verdicts must match the oracle exactly.

These run the full stack — generator → wire format → client queue →
server session → dense monitor — hermetically (in-process server on an
ephemeral port), with and without faults.
"""

import pytest

from repro.core.errors import ReproError
from repro.obs.registry import Histogram, use_registry
from repro.workload.generator import FaultSpec
from repro.workload.runner import _histogram_from_prometheus, run_workload

from .conftest import SCENARIO_NAMES

FAULTS = FaultSpec(reorder=0.05, dup=0.05, drop=0.05)


class TestOracleAgreement:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_faulted_run_agrees(self, name):
        report = run_workload(
            name, seed=13, faults=FAULTS, sessions=3, events=120
        )
        assert report.all_agree, report.describe()
        assert report.agreement == 1.0
        # the verdicts agree *positionally*, not just on presence
        for outcome in report.sessions:
            assert outcome.expected == outcome.observed
            assert outcome.errors == 0
        assert report.events_total > 0

    def test_fault_free_run_sees_no_violations(self):
        report = run_workload(
            "pubsub_fanout", seed=13, sessions=2, events=100
        )
        assert report.all_agree
        assert report.expected_violations == 0
        assert report.observed_violations == 0
        assert report.fault_counts() == {"reorder": 0, "dup": 0, "drop": 0}

    def test_sessions_use_distinct_seeds(self):
        report = run_workload(
            "leader_election", seed=1, faults=FAULTS, sessions=4, events=100
        )
        # with per-session seeds S:i, sessions diverge: their fault
        # tallies are not all identical
        assert len({tuple(sorted(s.faults.items())) for s in report.sessions}) > 1


class TestReportShape:
    @pytest.fixture(scope="class")
    def report(self):
        return run_workload(
            "two_phase_dynamic", seed=3, faults=FAULTS, sessions=2, events=80
        )

    def test_latency_summary_present_in_process(self, report):
        assert report.latency is not None
        assert report.latency["count"] == report.events_total
        assert set(report.latency) == {
            "count", "mean_us", "p50_us", "p90_us", "p99_us",
        }

    def test_run_record_matches_bench_schema(self, report):
        record = report.run_record("faulted")
        assert record["label"] == "faulted"
        assert record["sessions"] == 2
        assert record["events"] == report.events_total
        assert record["events_per_sec"] > 0
        assert set(record["faults"]) == {"reorder", "dup", "drop"}
        assert record["violations"]["agreement"] == 1.0

    def test_describe_is_human_readable(self, report):
        text = report.describe()
        assert "two_phase_dynamic" in text
        assert "oracle agreement 100%" in text
        assert "DISAGREEMENT" not in text

    def test_metrics_counters_fed(self):
        with use_registry() as registry:
            run_workload(
                "pubsub_fanout", seed=13, faults=FAULTS, sessions=2, events=80
            )
            snapshot = registry.snapshot()
        assert snapshot["repro_workload_events_total"][""] > 0
        assert snapshot["repro_workload_sessions_total"][""] == 2
        assert snapshot["repro_workload_disagreements_total"][""] == 0
        # at least one fault kind was injected at these rates
        assert snapshot["repro_workload_faults_total"]


class TestErrors:
    def test_unknown_scenario(self):
        with pytest.raises(ReproError, match="no scenario named"):
            run_workload("ghost")


class TestPrometheusRoundTrip:
    def test_histogram_survives_exposition(self):
        with use_registry() as registry:
            hist = registry.histogram("rt_seconds", help="x")
            for value in (0.0005, 0.002, 0.002, 5.0):
                hist.observe(value)
            text = registry.format_prometheus()
        back = _histogram_from_prometheus(text, "rt_seconds")
        assert isinstance(back, Histogram)
        assert back.count == hist.count
        assert back.counts == hist.counts
        assert back.total == pytest.approx(hist.total)

    def test_absent_family_is_none(self):
        assert _histogram_from_prometheus("other_total 3\n", "rt_seconds") is None
