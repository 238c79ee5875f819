"""``--watch FILE``: mtime-polled document hot-swap under live traffic."""

import asyncio
import os

import pytest

from repro.service import MonitorClient, MonitorServer, SpecRegistry
from repro.service.registry import _reset_shared_state

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
    _reset_shared_state()
    yield
    _reset_shared_state()


def _rewrite(path, text):
    """Replace the watched file with a guaranteed-fresh stamp.

    The poller compares ``(st_mtime_ns, st_size)``; coarse filesystem
    clocks can hand two quick writes the same mtime, so the test bumps
    the mtime explicitly instead of sleeping and hoping.
    """
    stamp = path.stat().st_mtime_ns
    path.write_text(text, encoding="utf-8")
    bumped = max(path.stat().st_mtime_ns, stamp + 1_000_000_000)
    os.utime(path, ns=(bumped, bumped))


async def _wait_for(predicate, *, tries=400, pause=0.01):
    for _ in range(tries):
        if predicate():
            return
        await asyncio.sleep(pause)
    pytest.fail("watcher never applied the edit")


class TestWatch:
    def test_edit_hot_swaps_under_live_traffic(self, tmp_path):
        doc = tmp_path / "spec.oun"
        doc.write_text(OLD_DOC, encoding="utf-8")

        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(
                registry, watch=doc, watch_interval=0.02
            ) as server:
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B"
                ) as session:
                    await session.send_event(EVENT)  # traffic on the old build
                    _rewrite(doc, NEW_DOC)
                    await _wait_for(lambda: registry.get("B").version == 1)
                    # the bound session still drains its pinned build …
                    await session.send_event(EVENT)
                    mid = await session.status()
                    # … and a rebind picks up the swapped machine
                    await session.use_spec("B")
                    await session.send_event(EVENT)
                    end = await session.status()
            return mid, end

        mid, end = asyncio.run(run())
        assert mid.ok and mid.events == 2
        assert end.ok and end.events == 1

    def test_broken_edit_keeps_the_last_good_build(self, tmp_path):
        doc = tmp_path / "spec.oun"
        doc.write_text(OLD_DOC, encoding="utf-8")

        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(
                registry, watch=doc, watch_interval=0.02
            ) as server:
                _rewrite(doc, "specification {")  # a half-saved document
                # a broken edit must not take the service down: new
                # sessions keep binding the last good build while the
                # watcher keeps polling
                await asyncio.sleep(0.1)
                async with MonitorClient(
                    "127.0.0.1", server.port, spec="B"
                ) as client:
                    await client.send_event(EVENT)
                    broken_era = await client.status()
                _rewrite(doc, NEW_DOC)
                await _wait_for(lambda: registry.get("B").version == 1)
            return broken_era, registry

        broken_era, registry = asyncio.run(run())
        assert broken_era.ok and broken_era.events == 1
        assert registry.get("B").version == 1
        assert registry.get("A").version == 0

    def test_unchanged_stamp_is_never_reapplied(self, tmp_path):
        doc = tmp_path / "spec.oun"
        doc.write_text(OLD_DOC, encoding="utf-8")

        async def run():
            registry = SpecRegistry.from_text(OLD_DOC)
            async with MonitorServer(
                registry, watch=doc, watch_interval=0.01
            ) as server:
                del server
                await asyncio.sleep(0.1)  # many poll rounds, no edit
            return registry

        registry = asyncio.run(run())
        assert registry.get("A").version == 0
        assert registry.get("B").version == 0
