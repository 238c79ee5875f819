"""Tests for the live SPEC update path: registry hot-swap + UPDATE verb."""

import asyncio

import pytest

from repro.core.errors import ReproError
from repro.service import (
    MonitorClient,
    MonitorServer,
    SpecRegistry,
)
from repro.service.registry import _reset_shared_state, shared_machine_count

OLD_DOC = """
object o
object c
specification A {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)>*"
}
specification B {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)> <c,o,M(_)>*"
}
"""

#: OLD_DOC with only B edited (B becomes as permissive as A).
NEW_DOC = OLD_DOC.replace('"<c,o,M(_)> <c,o,M(_)>*"', '"<c,o,M(_)>*"')

EVENT = "c -> o : M(Data:d)"


@pytest.fixture(autouse=True)
def fresh_intern_tables():
    """Start each test from empty process-wide intern tables.

    Registries built by *other* test modules keep their pins for the
    life of the process; count assertions here need a clean slate.
    """
    _reset_shared_state()
    yield
    _reset_shared_state()


class TestRegistryUpdate:
    def test_same_text_is_all_unchanged(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        old = registry.get("B")
        report = registry.update_from_text(OLD_DOC)
        assert report.changed == () and report.added == ()
        assert set(report.unchanged) == {"A", "B"}
        assert registry.get("B") is old  # identity: sessions unaffected

    def test_one_spec_edit_swaps_only_that_spec(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        old_a, old_b = registry.get("A"), registry.get("B")
        report = registry.update_from_text(NEW_DOC)
        assert report.changed == ("B",)
        assert report.unchanged == ("A",)
        assert registry.get("A") is old_a
        new_b = registry.get("B")
        assert new_b is not old_b
        assert new_b.version == old_b.version + 1

    def test_swap_evicts_the_replaced_interned_machine(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        assert shared_machine_count() == 2
        registry.update_from_text(NEW_DOC)
        # B's old machine was evicted when its last pin was released;
        # B's new content now shares A's interned machine.
        assert shared_machine_count() == 1
        assert registry.get("B").machine is registry.get("A").machine

    def test_force_installs_fresh_private_machines(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        old_b = registry.get("B")
        report = registry.update_from_text(OLD_DOC, force=True)
        assert set(report.changed) == {"A", "B"}
        fresh = registry.get("B")
        assert fresh is not old_b
        assert fresh.version == old_b.version + 1
        # force bypasses the intern tables: the rebuilt dense image is a
        # fresh private object, and the old pins are released
        assert fresh.dense is not old_b.dense
        assert shared_machine_count() == 0

    def test_str_report(self):
        registry = SpecRegistry.from_text(OLD_DOC)
        report = registry.update_from_text(NEW_DOC)
        assert str(report) == "changed=1 unchanged=1 added=0"


class TestUpdateVerb:
    """The wire-level UPDATE verb, text and binary framings."""

    def _registry(self):
        return SpecRegistry.from_text(OLD_DOC)

    @pytest.mark.parametrize("proto", [1, 2])
    def test_update_document_over_both_framings(self, proto):
        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, proto=proto
                ) as client:
                    fields = await client.update_document(text=NEW_DOC)
            return fields, registry

        fields, registry = asyncio.run(run())
        assert fields["changed"] == "1"
        assert fields["unchanged"] == "1"
        assert fields["added"] == "0"
        assert fields["specs"] == "B"
        assert registry.get("B").version == 1

    def test_bound_session_drains_on_the_old_machine(self):
        """A mid-session swap never changes the session's machine."""

        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B"
                ) as session:
                    await session.send_event(EVENT)
                    async with MonitorClient(
                        "127.0.0.1", server.port
                    ) as admin:
                        await admin.update_document(text=NEW_DOC)
                    # old-B requires at least two M events; still bound
                    await session.send_event(EVENT)
                    mid = await session.status()
                    # rebinding picks up the new machine and resets
                    await session.use_spec("B")
                    await session.send_event(EVENT)
                    end = await session.status()
            return mid, end

        mid, end = asyncio.run(run())
        assert mid.ok and mid.events == 2
        assert end.ok and end.events == 1

    def test_scenario_form(self):
        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    return await client.update_document(
                        scenario="pubsub_fanout"
                    )

        fields = asyncio.run(run())
        assert int(fields["added"]) > 0

    def test_broken_document_is_an_error_and_registry_untouched(self):
        async def run():
            registry = self._registry()
            async with MonitorServer(registry) as server:
                async with MonitorClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ReproError):
                        await client.update_document(text="specification {")
            return registry

        registry = asyncio.run(run())
        assert registry.names() == ["A", "B"]
        assert registry.get("B").version == 0

    def test_client_validates_arguments(self):
        client = MonitorClient("127.0.0.1", 1)
        with pytest.raises(ReproError, match="exactly one"):
            asyncio.run(client.update_document())
        with pytest.raises(ReproError, match="exactly one"):
            asyncio.run(client.update_document(text="x", scenario="y"))


#: OLD_DOC with B's alphabet *widened* by a second method N — the letter
#: table of (B, version 1) strictly contains version 0's.
WIDER_DOC = """
object o
object c
specification A {
  objects o
  method M(Data)
  alphabet { <c, o, M(_)> ; }
  traces prs "<c,o,M(_)>*"
}
specification B {
  objects o
  method M(Data)
  method N(Data)
  alphabet { <c, o, M(_)> ; <c, o, N(_)> ; }
  traces prs "<c,o,M(_)>* <c,o,N(_)>*"
}
"""

N_EVENT = "c -> o : N(Data:d)"


class TestBinaryUpdateRace:
    """UPDATE racing proto=2 EVENTS batches (PR 9 satellite check).

    A bound binary session keeps draining its pinned build — its queued
    letter ids mean what they meant when the table was synced — while a
    rebind resyncs the LETTERS table keyed ``(name, version)`` and only
    then sees the new alphabet.
    """

    def test_batches_drain_pinned_build_and_rebind_resyncs_letters(self):
        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(registry) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B", proto=2, batch=8
                ) as session:
                    letters_v0 = session.letters
                    # half a batch queued, then the document swaps under it
                    await session.send_event(EVENT)
                    async with MonitorClient(
                        "127.0.0.1", server.port, proto=2
                    ) as admin:
                        await admin.update_document(text=WIDER_DOC)
                    await session.send_event(EVENT)
                    mid = await session.status()  # flush: both ids hit old B
                    # the widened alphabet is invisible to the pinned build:
                    # N travels as a raw EVENT frame and is skipped
                    await session.send_event(N_EVENT)
                    drained = await session.status()
                    # rebinding resyncs LETTERS for (B, 1): N now validates
                    await session.use_spec("B")
                    letters_v1 = session.letters
                    await session.send_event(EVENT)
                    await session.send_event(N_EVENT)
                    end = await session.status()
            return letters_v0, letters_v1, mid, drained, end

        letters_v0, letters_v1, mid, drained, end = asyncio.run(run())
        # old B needs two M events; the queued batch drained on it
        assert mid.ok and mid.events == 2 and mid.skipped == 0
        assert drained.events == 3 and drained.skipped == 1
        # the rebind fetched a strictly larger letter table
        assert set(letters_v0) < set(letters_v1)
        assert end.ok and end.events == 2 and end.skipped == 0
