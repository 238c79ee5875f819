"""Text-vs-binary verdict equivalence: the two framings are one protocol.

The round-trip property the binary wire must satisfy (docs/wire-protocol.md,
DESIGN.md §13): a faulted workload stream driven over text proto=1 and
over binary proto=2 yields *identical* per-session verdicts — same
violation presence and same global violation indices — and both agree
with the independent dense oracle.  The streams themselves are identical
by the generator's seeding contract, so any divergence is the framing's
fault.
"""

import asyncio

import pytest

from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.workload.generator import FaultSpec
from repro.workload.runner import run_workload

FAULTS = FaultSpec(reorder=0.03, dup=0.02, drop=0.02)


def _verdicts(report):
    return [(s.expected, s.observed) for s in report.sessions]


class TestWireEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    def test_faulted_verdicts_identical_across_framings(self, seed):
        kwargs = dict(
            seed=seed, faults=FAULTS, sessions=3, events=150
        )
        text = run_workload("two_phase_dynamic", **kwargs)
        binary = run_workload(
            "two_phase_dynamic", binary=True, batch=16, **kwargs
        )
        assert not text.binary and binary.binary
        assert text.all_agree, text.describe()
        assert binary.all_agree, binary.describe()
        assert _verdicts(text) == _verdicts(binary)

    @pytest.mark.parametrize("batch", [1, 7, 64, 1000])
    def test_batch_size_never_changes_verdicts(self, batch):
        kwargs = dict(seed=11, faults=FAULTS, sessions=2, events=120)
        text = run_workload("leader_election", **kwargs)
        binary = run_workload(
            "leader_election", binary=True, batch=batch, **kwargs
        )
        assert binary.all_agree, binary.describe()
        assert _verdicts(text) == _verdicts(binary)

    def test_fault_free_binary_run_is_clean(self):
        report = run_workload(
            "pubsub_fanout", seed=5, sessions=2, events=100,
            binary=True, batch=32,
        )
        assert report.all_agree and report.observed_violations == 0
        assert all(s.errors == 0 for s in report.sessions)


OLD_DOC = """
object o
object c
specification Alt {
  objects o
  method A(Data)
  method B(Data)
  alphabet { <c, o, A(_)> ; <c, o, B(_)> ; }
  traces prs "[<c,o,A(_)> <c,o,B(_)>]*"
}
"""

#: Same name and alphabet, stricter machine: only B events allowed.
NEW_DOC = OLD_DOC.replace(
    '"[<c,o,A(_)> <c,o,B(_)>]*"', '"<c,o,B(_)>*"'
)

EV_A = "c -> o : A(Data:d)"
EV_B = "c -> o : B(Data:d)"


class TestHotSwapEquivalence:
    """The cross-framing law for live SPEC swaps: a hot swap mid-session
    yields identical verdicts over text proto=1 and binary proto=2 —
    before the swap (both drain on the old machine) and after a rebind
    (both attach to the new one; binary additionally resyncs letters)."""

    async def _run(self, proto: int):
        registry = SpecRegistry.from_text(OLD_DOC)
        async with MonitorServer(registry) as server:
            async with MonitorClient(
                "127.0.0.1", server.port, spec="Alt", proto=proto
            ) as session:
                await session.send_event(EV_A)
                await session.send_event(EV_B)
                async with MonitorClient(
                    "127.0.0.1", server.port, proto=proto
                ) as admin:
                    fields = await admin.update_document(text=NEW_DOC)
                # still bound to the old machine: A-B alternation stays ok
                await session.send_event(EV_A)
                await session.send_event(EV_B)
                mid = await session.status()
                # rebind: attach to the swapped machine (and, on binary,
                # resync the letter table), then violate the new spec
                await session.use_spec("Alt")
                await session.send_event(EV_A)
                end = await session.status()
        return fields, mid, end

    def _normalize(self, status):
        return (
            status.ok,
            status.events,
            status.skipped,
            status.errors,
            status.violation_index,
            status.violation_event,
        )

    def test_hot_swap_verdicts_identical_across_framings(self):
        text = asyncio.run(self._run(proto=1))
        binary = asyncio.run(self._run(proto=2))

        for fields, mid, end in (text, binary):
            assert fields["changed"] == "1"
            # drain guarantee: the bound session never saw the swap
            assert mid.ok and mid.events == 4
            # after rebind the new machine rejects the A event
            assert not end.ok and end.violation_index == 0

        assert text[0] == binary[0]
        assert self._normalize(text[1]) == self._normalize(binary[1])
        assert self._normalize(text[2]) == self._normalize(binary[2])
