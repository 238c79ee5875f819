"""A per-key FIFO worker pool on one asyncio loop (benchmark probe only).

No code in ``repro`` uses this module: the server steps each session's
monitor inline in the connection handler (DESIGN.md §7.2), because workers that
are tasks on the connection's own loop give no CPU parallelism.  The
module survives only for the repository benchmark's ``--trace 1`` probe
(``perfbench/layers.py``), which times :meth:`ShardPool.submit_to` as
``shards.submit_us_per_task``; the benchmark change that retires that
metric deletes this module.

Events are routed to one of ``n`` workers by a *stable* hash of a key
(CRC-32 of the name — Python's ``hash`` is salted per process).  Each
worker drains its own FIFO queue, so items with the same key run in
submission order; :meth:`ShardPool.flush` is a barrier.  A
:class:`ShardRouter` memoises the key → shard mapping for one stream.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.obs.registry import get_registry

__all__ = ["shard_index", "ShardPool", "ShardRouter"]

DEFAULT_QUEUE_SIZE = 1024


def shard_index(callee_name: str, shards: int) -> int:
    """Stable shard of a callee name: identical across runs and processes."""
    if shards < 1:
        raise ValueError("shard count must be positive")
    if shards == 1:
        return 0
    return zlib.crc32(callee_name.encode("utf-8")) % shards


@dataclass(slots=True)
class _Flush:
    """Queue sentinel: resolves its future once the worker reaches it."""

    future: asyncio.Future


class ShardPool:
    """``n`` single-consumer FIFO workers keyed by callee hash."""

    def __init__(self, shards: int, *, queue_size: int = DEFAULT_QUEUE_SIZE) -> None:
        if shards < 1:
            raise ValueError("shard count must be positive")
        self.shards = shards
        self._queues: list[asyncio.Queue] = [
            asyncio.Queue(maxsize=queue_size) for _ in range(shards)
        ]
        self._workers: list[asyncio.Task] = []
        self.tasks_run = 0
        self.task_errors = 0
        registry = get_registry()
        self._c_tasks = registry.counter(
            "repro_shard_tasks_total", help="Thunks executed by shard workers."
        )
        self._c_errors = registry.counter(
            "repro_shard_task_errors_total",
            help="Shard thunks that raised (the worker survives).",
        )

    def shard_of(self, callee_name: str) -> int:
        return shard_index(callee_name, self.shards)

    async def start(self) -> None:
        if self._workers:
            return
        self._workers = [
            asyncio.create_task(self._run(q), name=f"repro-shard-{i}")
            for i, q in enumerate(self._queues)
        ]

    async def _run(self, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            try:
                if item is None:
                    return
                if isinstance(item, _Flush):
                    if not item.future.done():
                        item.future.set_result(None)
                    continue
                self.tasks_run += 1
                self._c_tasks.inc()
                try:
                    item()
                except Exception:
                    # a failing thunk must not kill the shard
                    self.task_errors += 1
                    self._c_errors.inc()
            finally:
                queue.task_done()

    async def submit(self, callee_name: str, thunk: Callable[[], None]) -> int:
        """Enqueue a thunk on the callee's shard; returns the shard index.

        ``await`` blocks when the shard queue is full — natural
        backpressure toward the submitting session.
        """
        shard = self.shard_of(callee_name)
        await self.submit_to(shard, thunk)
        return shard

    async def submit_to(self, shard: int, thunk: Callable[[], None]) -> None:
        """Enqueue a thunk on an already-resolved shard (same backpressure)."""
        await self._queues[shard].put(thunk)

    def router(self, prefix: str = "") -> "ShardRouter":
        """A memoising router over this pool namespaced by ``prefix``."""
        return ShardRouter(self, prefix)

    async def flush(self, shard_ids: Iterable[int] | None = None) -> None:
        """Barrier: resolves once every prior item on the shards is done."""
        ids = range(self.shards) if shard_ids is None else sorted(set(shard_ids))
        flushes = []
        for i in ids:
            loop = asyncio.get_running_loop()
            sentinel = _Flush(loop.create_future())
            await self._queues[i].put(sentinel)
            flushes.append(sentinel.future)
        if flushes:
            await asyncio.gather(*flushes)

    async def stop(self) -> None:
        """Drain every queue and stop the workers."""
        if not self._workers:
            return
        for q in self._queues:
            await q.put(None)
        await asyncio.gather(*self._workers)
        self._workers = []

    def __repr__(self) -> str:
        return f"ShardPool(shards={self.shards}, run={self.tasks_run})"


class ShardRouter:
    """Memoised callee → shard routing for one event stream.

    ``prefix`` is the stream's namespace: independent streams spread
    across the workers even when they talk to the same object names,
    while the mapping for one stream stays stable across its lifetime.
    """

    __slots__ = ("pool", "prefix", "_shards", "_c_routed")

    def __init__(self, pool: ShardPool, prefix: str = "") -> None:
        self.pool = pool
        self.prefix = prefix
        self._shards: dict[str, int] = {}
        self._c_routed = get_registry().counter(
            "repro_shard_routed_callees_total",
            help="Distinct callees resolved to a shard (router cache fills).",
        )

    def shard_of(self, callee_name: str) -> int:
        shard = self._shards.get(callee_name)
        if shard is None:
            shard = self._shards[callee_name] = shard_index(
                self.prefix + callee_name, self.pool.shards
            )
            self._c_routed.inc()
        return shard

    def __repr__(self) -> str:
        return (
            f"ShardRouter(prefix={self.prefix!r}, "
            f"callees={len(self._shards)})"
        )
