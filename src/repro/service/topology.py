"""Multi-process serving topology: listener/router + monitor workers.

One :class:`~repro.service.server.MonitorServer` is a single asyncio
process, so one core bounds it.  This module
scales that design out to N worker *processes*, each running its own
``MonitorServer`` over its own slice of a shared data directory
(``data-dir/worker-<i>/`` — see :mod:`~repro.service.durability`), behind
one advertised ``host:port``.

Two listener modes, picked per platform:

``reuseport``
    Every worker binds its own listening socket with ``SO_REUSEPORT``
    and the kernel load-balances accepted connections across them.  The
    parent binds (but never listens on) one extra reservation socket so
    an ephemeral ``port=0`` resolves to a concrete port before the
    workers start.

``handoff``
    The parent owns the one listening socket, accepts connections
    itself, picks a worker on a consistent-hash ring over the
    connection sequence, and ships the accepted descriptor through the
    worker's pipe (``multiprocessing.reduction.send_handle``).  Slower
    per accept, but works without ``SO_REUSEPORT``.

Either way a session lives wholly on one worker (a TCP connection lands
exactly once), where one monitor steps it in arrival order.  Durable
session keys do not need sticky routing: recovery scans every worker's
log directory, so a resumed session replays its history no matter which
worker the reconnect lands on.

A supervisor task respawns dead workers with their original index —
same ``worker-<i>/`` directory — which is what makes SIGKILL an event
the durability log absorbs rather than an outage.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import signal
import socket
import multiprocessing
from dataclasses import dataclass, replace
from multiprocessing import reduction
from pathlib import Path
from zlib import crc32

from repro.core.errors import ReproError

__all__ = ["HashRing", "ScaleOutServer", "WorkerConfig", "reuseport_available"]

#: Virtual nodes per ring member: enough that removing one node moves
#: ~1/N of the keyspace instead of a contiguous half.
DEFAULT_VNODES = 64


def reuseport_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


class HashRing:
    """Consistent hashing over a fixed node set (CRC-32 points)."""

    def __init__(self, nodes, *, vnodes: int = DEFAULT_VNODES) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ReproError("HashRing needs at least one node")
        ring = sorted(
            (crc32(f"{node}#{v}".encode("utf-8")), node)
            for node in nodes
            for v in range(vnodes)
        )
        self._points = [point for point, _ in ring]
        self._nodes = [node for _, node in ring]

    def node_for(self, key) -> object:
        """The node owning ``key`` (first ring point at or after its hash)."""
        h = crc32(str(key).encode("utf-8"))
        index = bisect.bisect_left(self._points, h) % len(self._points)
        return self._nodes[index]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to rebuild its server.

    Plain picklable data (the spawn start method re-imports everything):
    the spec source travels as a scenario *name* or raw document *text*,
    never as compiled objects.
    """

    worker_index: int
    mode: str  # "reuseport" | "handoff"
    host: str
    port: int  # concrete port (reuseport workers bind it themselves)
    scenario: str | None = None
    document: str | None = None
    history_limit: int | None = 4096
    data_dir: str | None = None
    max_proto: int = 2
    fsync_every: int = 64
    snapshot_every: int = 1024
    watch: str | None = None
    #: Requested per-worker direct port (0 = ephemeral, None = off).
    #: The *resolved* port travels back in the worker's ready message so
    #: the parent can publish :attr:`ScaleOutServer.worker_ports` for
    #: metrics fan-in (workers share the advertised port, so they are
    #: not individually addressable through it).
    direct_port: int | None = 0


def _build_registry(config: WorkerConfig):
    from repro.service.registry import SpecRegistry

    if config.scenario is not None:
        from repro.workload.scenarios import get_scenario

        return get_scenario(config.scenario).registry(
            history_limit=config.history_limit
        )
    return SpecRegistry.from_text(
        config.document or "", history_limit=config.history_limit
    )


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


async def _serve_handoff(server, conn) -> None:
    """Accept descriptors off the parent's pipe until it closes."""
    loop = asyncio.get_running_loop()
    while True:
        try:
            fd = await loop.run_in_executor(None, reduction.recv_handle, conn)
        except (EOFError, OSError):
            return
        sock = socket.socket(fileno=fd)
        sock.setblocking(False)
        reader, writer = await asyncio.open_connection(sock=sock)
        asyncio.ensure_future(server._handle_connection(reader, writer))


async def _worker_main(config: WorkerConfig, conn) -> None:
    from repro.service.server import MonitorServer

    registry = _build_registry(config)
    sock = None
    if config.mode == "reuseport":
        sock = _reuseport_socket(config.host, config.port)
        sock.listen(128)
        sock.setblocking(False)
    server = MonitorServer(
        registry,
        host=config.host,
        data_dir=config.data_dir,
        worker_id=config.worker_index,
        fsync_every=config.fsync_every,
        snapshot_every=config.snapshot_every,
        watch=config.watch,
        max_proto=config.max_proto,
        direct_port=config.direct_port,
        sock=sock,
        listen=config.mode == "reuseport",
    )
    await server.start()
    conn.send(("ready", config.worker_index, os.getpid(), server.direct_port))
    if config.mode == "handoff":
        await _serve_handoff(server, conn)
        await server.stop()
    else:
        await asyncio.Event().wait()  # parent terminates the process


def _worker_entry(config: WorkerConfig, conn) -> None:  # pragma: no cover
    # Child-process entry point.  The parent handles operator signals;
    # workers die by terminate()/SIGKILL, so a stray ^C in the group
    # must not race a clean parent shutdown.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_worker_main(config, conn))
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


class ScaleOutServer:
    """N monitor-worker processes behind one advertised address.

    ``listener="auto"`` picks ``reuseport`` where the platform has it
    and falls back to the descriptor-handoff router otherwise; tests
    pass an explicit mode to pin the code path.
    """

    def __init__(
        self,
        *,
        scenario: str | None = None,
        document: str | None = None,
        procs: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: str | Path | None = None,
        listener: str = "auto",
        history_limit: int | None = 4096,
        max_proto: int = 2,
        fsync_every: int = 64,
        snapshot_every: int = 1024,
        watch: str | Path | None = None,
    ) -> None:
        if (scenario is None) == (document is None):
            raise ReproError(
                "ScaleOutServer needs exactly one of scenario= or document="
            )
        if procs < 1:
            raise ReproError("procs must be >= 1")
        if listener == "auto":
            listener = "reuseport" if reuseport_available() else "handoff"
        if listener not in ("reuseport", "handoff"):
            raise ReproError(f"unknown listener mode {listener!r}")
        if listener == "reuseport" and not reuseport_available():
            raise ReproError("SO_REUSEPORT is not available on this platform")
        self.mode = listener
        self.procs = procs
        self.host = host
        self.port = port
        self.restarts = 0
        self._template = WorkerConfig(
            worker_index=0,
            mode=listener,
            host=host,
            port=port,
            scenario=scenario,
            document=document,
            history_limit=history_limit,
            data_dir=str(data_dir) if data_dir is not None else None,
            max_proto=max_proto,
            fsync_every=fsync_every,
            snapshot_every=snapshot_every,
            watch=str(watch) if watch is not None else None,
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: list[tuple] = []  # (process, parent_conn) per index
        self._reserve_sock: socket.socket | None = None
        self._listen_sock: socket.socket | None = None
        self._accept_task: asyncio.Task | None = None
        self._supervisor_task: asyncio.Task | None = None
        self._ring: HashRing | None = None
        self._conn_seq = 0
        self._worker_ports: dict[int, int | None] = {}

    @property
    def worker_pids(self) -> tuple[int, ...]:
        return tuple(proc.pid for proc, _ in self._workers)

    @property
    def worker_ports(self) -> tuple[int | None, ...]:
        """Each worker's private direct port, by index.

        These bypass the shared advertised port, so a client (the
        gateway's METRICS fan-in) can address one specific worker.
        Respawns re-resolve them, so read this per use, not once.
        """
        return tuple(self._worker_ports.get(i) for i in range(self.procs))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self.mode == "reuseport":
            # Bound but never listening: it reserves the port (resolving
            # port=0 to a real number the workers can share) without
            # ever winning an accept.
            self._reserve_sock = _reuseport_socket(self.host, self.port)
            self.port = self._reserve_sock.getsockname()[1]
        else:
            self._listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listen_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._listen_sock.bind((self.host, self.port))
            self._listen_sock.listen(128)
            self._listen_sock.setblocking(False)
            self.port = self._listen_sock.getsockname()[1]
        self._template = replace(self._template, port=self.port)
        for index in range(self.procs):
            self._workers.append(await self._spawn(index))
        self._ring = HashRing(range(self.procs))
        if self.mode == "handoff":
            self._accept_task = asyncio.create_task(self._accept_loop())
        self._supervisor_task = asyncio.create_task(self._supervise())

    async def _spawn(self, index: int):
        config = replace(self._template, worker_index=index)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(config, child_conn),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        proc.start()
        child_conn.close()
        loop = asyncio.get_running_loop()
        try:
            ready = await asyncio.wait_for(
                loop.run_in_executor(None, parent_conn.recv), timeout=60.0
            )
        except (asyncio.TimeoutError, EOFError) as exc:
            proc.terminate()
            raise ReproError(
                f"worker {index} failed to start: {exc!r}"
            ) from exc
        if ready[0] != "ready":  # pragma: no cover - defensive
            raise ReproError(f"worker {index} sent unexpected {ready!r}")
        self._worker_ports[index] = ready[3] if len(ready) > 3 else None
        return proc, parent_conn

    async def stop(self) -> None:
        for task in (self._supervisor_task, self._accept_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._supervisor_task = self._accept_task = None
        loop = asyncio.get_running_loop()
        for proc, conn in self._workers:
            conn.close()  # handoff workers exit their recv loop on EOF
            proc.terminate()
        for proc, _ in self._workers:
            await loop.run_in_executor(None, proc.join, 10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
        self._workers = []
        self._worker_ports = {}
        for sock in (self._reserve_sock, self._listen_sock):
            if sock is not None:
                sock.close()
        self._reserve_sock = self._listen_sock = None

    async def __aenter__(self) -> "ScaleOutServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- fault injection / supervision ---------------------------------------

    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker (fault injection); returns the dead pid."""
        proc, _ = self._workers[index]
        pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    async def _supervise(self) -> None:
        """Respawn dead workers with their original index forever."""
        while True:
            await asyncio.sleep(0.2)
            for index, (proc, conn) in enumerate(list(self._workers)):
                if proc.is_alive():
                    continue
                conn.close()
                self._workers[index] = await self._spawn(index)
                self.restarts += 1

    # -- handoff routing -----------------------------------------------------

    async def _accept_loop(self) -> None:
        assert self._listen_sock is not None and self._ring is not None
        loop = asyncio.get_running_loop()
        while True:
            client, _addr = await loop.sock_accept(self._listen_sock)
            self._conn_seq += 1
            index = self._ring.node_for(f"conn:{self._conn_seq}")
            proc, conn = self._workers[index]
            try:
                await loop.run_in_executor(
                    None,
                    reduction.send_handle,
                    conn,
                    client.fileno(),
                    proc.pid,
                )
            except (OSError, EOFError, BrokenPipeError):
                pass  # worker died mid-handoff; client sees a reset and retries
            finally:
                client.close()
