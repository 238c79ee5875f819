"""Asyncio TCP server: many concurrent monitoring sessions.

Each connection is one session — an event stream checked online against
one registered specification (the paper's soundness condition
``h/α(Γ) ∈ T(Γ)`` per connection).  Each session owns one monitor, and
the connection handler steps it inline, in arrival order, before it
reads the next input — so a reply-bearing verb always sees every event
sent before it, and backpressure is TCP flow control.  Composition
``Γ‖Δ`` is the offline checker's job; the server never splits a
session's stream.  Parallelism comes from processes
(:mod:`~repro.service.topology`), not from tasks on this loop.

The server is single-loop, so monitor state and metrics need no locks.
"""

from __future__ import annotations

import asyncio
from array import array
from pathlib import Path

from repro.core.errors import ReproError
from repro.obs.metrics import ServiceMetrics, declare_cache_counters
from repro.obs.registry import get_registry
from repro.obs.trace import span
from repro.runtime import tracefile
from repro.runtime.monitor import SpecMonitor, Violation
from repro.service import durability, wire
from repro.service.protocol import (
    Command,
    ProtocolError,
    SessionStatus,
    format_status,
    parse_command,
    parse_hello,
)
from repro.service.registry import CompiledSpec, SpecRegistry

__all__ = ["MonitorServer"]


class _Session:
    """Per-connection state: bound spec, its monitor, counters."""

    __slots__ = (
        "proto",
        "compiled",
        "monitor",
        "events",
        "skipped",
        "errors",
        "violation",
        "key",
        "received",
        "lsn",
        "since_snapshot",
        "restored_violation",
    )

    def __init__(self) -> None:
        self.proto = 1
        self.compiled: CompiledSpec | None = None
        self.monitor: SpecMonitor | None = None
        self.events = 0
        self.skipped = 0
        self.errors = 0
        self.violation: Violation | None = None
        #: Durable-session state.  ``key`` is the client's idempotency
        #: key (None on plain sessions); ``received`` the monotonic input
        #: watermark (every EVENT line and every EVENTS id counts one,
        #: never reset — it is what ``applied=`` reports); ``lsn`` the
        #: next log sequence number.  ``restored_violation`` carries a
        #: violation recovered from the log as ``(index, line)`` — the
        #: Violation object itself cannot be rebuilt because the bounded
        #: history that produced it is gone.
        self.key: str | None = None
        self.received = 0
        self.lsn = 0
        self.since_snapshot = 0
        self.restored_violation: tuple[int, str] | None = None

    def reset(self) -> None:
        if self.monitor is not None:
            self.monitor.reset()
        self.events = 0
        self.skipped = 0
        self.errors = 0
        self.violation = None
        # ``received``/``lsn`` survive on purpose: the idempotency
        # watermark counts inputs consumed, not monitor state, and must
        # stay monotonic across RESET for resend dedup to stay sound.
        self.restored_violation = None

    def status(self) -> SessionStatus:
        violation = self.violation
        index = violation.index if violation else None
        line = tracefile.format_event(violation.event) if violation else None
        if violation is None and self.restored_violation is not None:
            index, line = self.restored_violation
        return SessionStatus(
            spec=self.compiled.name if self.compiled else None,
            events=self.events,
            skipped=self.skipped,
            errors=self.errors,
            violation_index=index,
            violation_event=line,
            applied=self.received if self.key is not None else None,
        )


class MonitorServer:
    """The monitoring service: registry + per-session monitors + TCP front."""

    def __init__(
        self,
        registry: SpecRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: ServiceMetrics | None = None,
        metrics_interval: float | None = None,
        metrics_out=None,
        metrics_port: int | None = None,
        direct_port: int | None = None,
        max_proto: int = wire.WIRE_VERSION,
        data_dir: str | Path | None = None,
        worker_id: int = 0,
        fsync_every: int = durability.DEFAULT_FSYNC_EVERY,
        snapshot_every: int = durability.DEFAULT_SNAPSHOT_EVERY,
        watch: str | Path | None = None,
        watch_interval: float = 0.5,
        sock=None,
        listen: bool = True,
    ) -> None:
        self.registry = registry
        #: Durable-session support: with a data directory the server
        #: write-ahead logs every input of a keyed session and replays
        #: the log on the session's next attach (same or later process).
        #: One connection per key at a time is the operator's contract —
        #: the server does not arbitrate concurrent writers of one key.
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._store = (
            durability.WorkerStore(
                self.data_dir, worker_id, fsync_every=fsync_every
            )
            if self.data_dir is not None
            else None
        )
        self.snapshot_every = snapshot_every
        self._watch = Path(watch) if watch is not None else None
        self._watch_interval = watch_interval
        self._watch_task: asyncio.Task | None = None
        #: ``sock``: serve an externally prepared listening socket (the
        #: SO_REUSEPORT workers of :mod:`~repro.service.topology`).
        #: ``listen=False``: no acceptor at all — handoff workers feed
        #: :meth:`_handle_connection` with sockets received over a pipe.
        self._sock = sock
        self._listen = listen
        #: Highest protocol version this server negotiates up to.
        #: ``max_proto=1`` emulates a pre-binary server (interop tests).
        self.max_proto = max_proto
        #: Pre-packed OP_LETTERS frames keyed by (spec name, version):
        #: a hot swap bumps the version, so rebinding sessions always
        #: sync the *current* table while the stale frame is purged.
        self._letters_frames: dict[tuple[str, int], bytes] = {}
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.host = host
        self.port = port
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._dump_task: asyncio.Task | None = None
        self._metrics_interval = metrics_interval
        self._metrics_out = metrics_out
        self.metrics_port = metrics_port
        self._metrics_server: asyncio.AbstractServer | None = None
        #: Optional second listener on the *same* connection handler.
        #: Scale-out workers share one advertised port (SO_REUSEPORT or
        #: descriptor handoff), which makes an individual worker
        #: unaddressable; ``direct_port=0`` gives each one a private
        #: ephemeral port so the gateway can fan in per-worker METRICS.
        self.direct_port = direct_port
        self._direct_server: asyncio.AbstractServer | None = None
        # Pre-declare the engine's cache counter families so a scrape of a
        # fresh server exposes them at zero instead of omitting them.
        declare_cache_counters(get_registry())

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket(s) and start the background tasks.

        With ``port=0`` the OS picks an ephemeral port; :attr:`port` holds
        the actual one afterwards (tests and benchmarks rely on this).
        """
        if not self._listen:
            pass  # handoff worker: connections arrive by file descriptor
        elif self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
            self.port = self._server.sockets[0].getsockname()[1]
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        if self.direct_port is not None:
            self._direct_server = await asyncio.start_server(
                self._handle_connection, self.host, self.direct_port
            )
            self.direct_port = (
                self._direct_server.sockets[0].getsockname()[1]
            )
        if self._watch is not None:
            self._watch_task = asyncio.create_task(self._watch_loop())
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_scrape, self.host, self.metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        if self._metrics_interval:
            self._dump_task = asyncio.create_task(
                self.metrics.periodic_dump(self._metrics_interval, self._metrics_out)
            )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
            self._watch_task = None
        if self._dump_task is not None:
            self._dump_task.cancel()
            try:
                await self._dump_task
            except asyncio.CancelledError:
                pass
            self._dump_task = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._direct_server is not None:
            self._direct_server.close()
            await self._direct_server.wait_closed()
            self._direct_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Sever live connections and let their handlers finish (durable
        # sessions write a farewell snapshot) before the log closes.
        for conn_writer in list(self._conn_writers):
            conn_writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._store is not None:
            self._store.close()

    async def __aenter__(self) -> "MonitorServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.session_opened()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        session = _Session()
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    command = parse_command(line)
                except ProtocolError as exc:
                    await self._reply(writer, f"ERR {exc}")
                    continue
                if command.verb == "EVENT":
                    self._handle_event(session, command.arg)
                    continue
                if command.verb == "UPDATE":
                    # Handled here, not in _handle_sync: the lines=<n>
                    # form reads its document body off the same reader.
                    ok = await self._handle_update_text(
                        command.arg, reader, writer
                    )
                    if not ok:
                        break  # EOF inside the announced body
                    continue
                done = await self._handle_sync(session, command, writer)
                if done:
                    break
                if session.proto >= 2:
                    # HELLO agreed on the binary framing: the negotiation
                    # reply above was the last text line on this wire.
                    await self._binary_loop(session, reader, writer)
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.metrics.session_closed()
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            if self._durable(session):
                try:
                    self._snapshot_session(session)
                except Exception:
                    pass  # the log already has everything; replay covers it
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _reply(self, writer: asyncio.StreamWriter, line: str) -> None:
        writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()

    # -- document watching (--watch) -----------------------------------------

    @staticmethod
    def _watch_stamp(path: Path) -> tuple[int, int] | None:
        try:
            st = path.stat()
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    async def _watch_loop(self) -> None:
        """Poll the watched document and hot-swap on change.

        Polling (mtime + size) keeps this dependency-free; a failed
        reload — the classic half-saved document — counts an error and
        leaves the registry on the last good build, exactly like a
        rejected ``UPDATE``.  Bound sessions drain on their pinned
        machines either way.
        """
        reg = get_registry()
        reloads = reg.counter(
            "repro_watch_reloads_total",
            help="Successful --watch document hot-swaps.",
        )
        failures = reg.counter(
            "repro_watch_errors_total",
            help="--watch reloads rejected (unreadable or invalid document).",
        )
        last = self._watch_stamp(self._watch)
        while True:
            await asyncio.sleep(self._watch_interval)
            stamp = self._watch_stamp(self._watch)
            if stamp is None or stamp == last:
                continue
            last = stamp
            try:
                text = self._watch.read_text(encoding="utf-8")
                self._apply_update(text=text)
            except (OSError, ReproError):
                failures.inc()
                continue
            reloads.inc()

    # -- durable sessions ----------------------------------------------------

    def _durable(self, session: _Session) -> bool:
        return session.key is not None and self._store is not None

    def _append_record(
        self, session: _Session, opcode: int, body: bytes, inputs: int
    ) -> None:
        """Write-ahead log one record and advance the session watermark."""
        record = durability.encode_record(
            opcode, session.key, session.lsn, session.received, body
        )
        # One log per worker process: every session appends to shard 0
        # (older data directories may hold shard-1.log … too; recovery
        # scans them all).
        self._store.append(0, record)
        session.lsn += 1
        session.received += inputs
        session.since_snapshot += inputs

    def _snapshot_payload(self, session: _Session) -> dict | None:
        """The session's snapshot, or None when it cannot be snapshotted.

        A deoptimised monitor (alive but fallen off the dense table) has
        no stable integer state to persist — recovery replays more log
        instead, which is always correct, just slower.
        """
        monitor_state = None
        monitor = session.monitor
        if monitor is not None:
            if monitor.alive and monitor._dstate is None:
                return None
            monitor_state = {"alive": monitor.alive, "dstate": monitor._dstate}
        violation = None
        if session.violation is not None:
            violation = {
                "index": session.violation.index,
                "event": tracefile.format_event(session.violation.event),
            }
        elif session.restored_violation is not None:
            violation = {
                "index": session.restored_violation[0],
                "event": session.restored_violation[1],
            }
        return {
            "key": session.key,
            "spec": session.compiled.name if session.compiled else None,
            "lsn": session.lsn,
            "received": session.received,
            "events": session.events,
            "skipped": session.skipped,
            "errors": session.errors,
            "violation": violation,
            "monitor": monitor_state,
        }

    def _snapshot_session(self, session: _Session) -> None:
        """Checkpoint a durable session so recovery can skip log prefix.

        The monitor has already applied everything the snapshot claims
        (stepping is inline); fsync the log first — a snapshot must never
        cover records that could still be lost — then write.
        """
        session.since_snapshot = 0
        self._store.sync()
        payload = self._snapshot_payload(session)
        if payload is not None:
            self._store.write_snapshot(payload)

    def _install_recovery(
        self, session: _Session, recovered: durability.RecoveredSession
    ) -> None:
        """Adopt a recovered session's counters, monitor and watermark."""
        session.received = recovered.received
        session.lsn = recovered.next_lsn
        session.since_snapshot = 0
        session.events = recovered.events
        session.skipped = recovered.skipped
        session.errors = recovered.errors
        session.compiled = recovered.compiled
        session.monitor = recovered.monitor
        session.violation = None
        session.restored_violation = None
        if recovered.violation_index is not None:
            session.restored_violation = (
                recovered.violation_index,
                recovered.violation_line or "",
            )

    def _bind_session(
        self, session: _Session, compiled: CompiledSpec
    ) -> int | None:
        """Bind (or durable re-attach) a spec; the ``applied=`` watermark.

        On a plain session SPEC means "fresh stream" and returns None.
        On a durable session re-binding the *already attached* spec it is
        an idempotent attach — the reconnecting client resumes the same
        logical stream, so nothing resets and no record is written; only
        a bind to a *different* spec starts over (logged as REC_BIND, the
        input watermark still monotonic).
        """
        durable = self._durable(session)
        if (
            durable
            and session.compiled is not None
            and session.compiled.name == compiled.name
        ):
            return session.received
        session.reset()
        session.compiled = compiled
        session.monitor = None
        if durable:
            self._append_record(
                session,
                durability.REC_BIND,
                compiled.name.encode("utf-8"),
                0,
            )
            return session.received
        return None

    # -- Prometheus scrape endpoint ------------------------------------------

    async def _handle_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one HTTP scrape with the Prometheus text exposition.

        A deliberately minimal HTTP/1.0 responder — every path returns the
        full dump, the connection closes after one response — which is all
        a Prometheus scraper (or ``curl``) needs.
        """
        try:
            while True:  # drain the request head; body-less GETs only
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = get_registry().format_prometheus().encode("utf-8")
            head = (
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n".encode("ascii")
                + b"Connection: close\r\n\r\n"
            )
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_sync(
        self, session: _Session, command: Command, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle a reply-bearing verb; returns True when the session ends."""
        if command.verb == "HELLO":
            proto, key = parse_hello(command.arg)
            agreed = min(proto, self.max_proto)
            durable = ""
            if key is not None and self._store is not None:
                # Recover before the reply: ``durable=1`` promises the
                # log is attached, so the watermark must already be
                # loaded when the client's SPEC asks for ``applied=``.
                # A failed recovery leaves the session plain, so the
                # connection's close writes no snapshot over the key's.
                try:
                    recovered = durability.recover(
                        self.data_dir, key, self.registry
                    )
                except ReproError as exc:
                    await self._reply(writer, f"ERR {exc}")
                    return False
                session.key = key
                self._install_recovery(session, recovered)
                durable = " durable=1"
            names = ",".join(self.registry.names())
            await self._reply(
                writer,
                f"OK repro-service {agreed}{durable} specs={names}",
            )
            # The switch happens *after* this reply: negotiation is
            # always text, everything past it is framed when agreed >= 2.
            session.proto = agreed
            return False
        if command.verb == "SPEC":
            try:
                compiled = self.registry.get(command.arg)
            except ReproError as exc:
                await self._reply(writer, f"ERR {exc}")
                return False
            applied = self._bind_session(session, compiled)
            suffix = "" if applied is None else f" applied={applied}"
            await self._reply(writer, f"OK spec {compiled.name}{suffix}")
            return False
        if command.verb == "STATUS":
            await self._reply(writer, format_status(session.status()))
            return False
        if command.verb == "METRICS":
            # Frame the multi-line Prometheus dump with an up-front line
            # count.
            text = get_registry().format_prometheus()
            lines = text.splitlines()
            await self._reply(writer, f"OK metrics lines={len(lines)}")
            for line in lines:
                await self._reply(writer, line)
            return False
        if command.verb == "RESET":
            if self._durable(session):
                self._append_record(session, durability.REC_RESET, b"", 0)
            session.reset()
            await self._reply(writer, "OK reset")
            return False
        if command.verb == "BYE":
            if self._durable(session):
                self._snapshot_session(session)
            await self._reply(writer, f"OK bye events={session.events}")
            return True
        raise AssertionError(f"unhandled verb {command.verb}")  # pragma: no cover

    # -- hot updates ---------------------------------------------------------

    def _apply_update(
        self,
        *,
        scenario: str | None = None,
        text: str | None = None,
        force: bool = False,
    ) -> str:
        """Hot-swap the registry from a scenario or document; OK detail.

        Existing sessions keep draining on the ``CompiledSpec`` they
        bound (monitors are pinned — see :meth:`_handle_event`); new
        binds pick up the swapped machines, and the purge below makes a
        binary rebind sync the new letter table instead of a stale
        frame.  Raises :class:`ReproError` on unknown scenarios or
        documents that fail to parse/elaborate — the registry is left
        untouched in that case.
        """
        if scenario is not None:
            from repro.workload.scenarios import get_scenario

            specs = get_scenario(scenario).specifications()
            report = self.registry.update(specs, force=force)
        else:
            report = self.registry.update_from_text(text or "", force=force)
        touched = set(report.changed) | set(report.added)
        for key in [k for k in self._letters_frames if k[0] in touched]:
            del self._letters_frames[key]
        names = ",".join(sorted(touched)) or "-"
        return (
            f"update changed={len(report.changed)} "
            f"unchanged={len(report.unchanged)} added={len(report.added)} "
            f"specs={names}"
        )

    async def _handle_update_text(
        self,
        arg: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Handle a text ``UPDATE``; False when EOF truncated the body.

        ``UPDATE scenario=<name> [force=1]`` is self-contained;
        ``UPDATE lines=<n> [force=1]`` reads exactly n raw document
        lines (blank lines included — they are body, not commands)
        before replying, mirroring the ``METRICS`` reply framing.
        """
        scenario: str | None = None
        count: int | None = None
        force = False
        for token in arg.split():
            key, eq, value = token.partition("=")
            if key == "scenario" and eq:
                scenario = value
            elif key == "lines" and eq:
                try:
                    count = int(value)
                except ValueError:
                    await self._reply(writer, f"ERR malformed lines={value!r}")
                    return True
                if count < 0:
                    await self._reply(writer, f"ERR malformed lines={value!r}")
                    return True
            elif key == "force" and eq:
                force = value == "1"
            else:
                await self._reply(writer, f"ERR malformed UPDATE field {token!r}")
                return True
        if (scenario is None) == (count is None):
            await self._reply(
                writer, "ERR UPDATE needs exactly one of scenario=/lines="
            )
            return True
        text: str | None = None
        if count is not None:
            body: list[str] = []
            for _ in range(count):
                raw = await reader.readline()
                if not raw:
                    return False  # client vanished mid-body
                body.append(
                    raw.decode("utf-8", errors="replace").rstrip("\r\n")
                )
            text = "\n".join(body)
        try:
            detail = self._apply_update(
                scenario=scenario, text=text, force=force
            )
        except ReproError as exc:
            await self._reply(writer, f"ERR {exc}")
            return True
        await self._reply(writer, f"OK {detail}")
        return True

    # -- binary framing (proto >= 2) -----------------------------------------

    async def _send_frame(
        self, writer: asyncio.StreamWriter, opcode: int, payload: bytes = b""
    ) -> None:
        writer.write(wire.encode_frame(opcode, payload))
        await writer.drain()

    def _letters_frame(self, compiled: CompiledSpec) -> bytes:
        """The spec's pre-packed ``OP_LETTERS`` frame (cached per version).

        A compiled spec's table is immutable, so one encoding serves
        every session that binds it; the cache key carries the spec's
        hot-swap ``version`` because an update may change the interned
        alphabet, and a rebind after the swap must sync the new table,
        not a stale frame.
        """
        key = (compiled.name, compiled.version)
        frame = self._letters_frames.get(key)
        if frame is None:
            lines = self.registry.letter_lines(compiled.name)
            frame = wire.encode_frame(wire.OP_LETTERS, wire.pack_letters(lines))
            self._letters_frames[key] = frame
        return frame

    async def _binary_loop(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve framed requests until ``BYE``, EOF, or an unsyncable frame.

        Error handling mirrors the framing guarantees: a malformed
        *payload* of a well-framed message elicits an ``ERR`` frame and
        the session continues (the stream is still in sync), while a
        bogus *length field* cannot be skipped past, so the error is
        reported and the connection closed.
        """
        while True:
            try:
                opcode, payload = await wire.read_frame(reader)
            except asyncio.IncompleteReadError:
                return  # clean EOF between frames: client vanished
            except wire.FrameError as exc:
                await self._send_frame(writer, wire.OP_ERR, str(exc).encode())
                return
            try:
                done = await self._handle_frame(session, opcode, payload, writer)
            except wire.FrameError as exc:
                await self._send_frame(writer, wire.OP_ERR, str(exc).encode())
                continue
            if done:
                return

    async def _handle_frame(
        self,
        session: _Session,
        opcode: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Dispatch one request frame; returns True when the session ends."""
        if opcode == wire.OP_EVENTS:
            self._handle_events(session, payload)
            return False
        if opcode == wire.OP_EVENT:
            self._handle_event(
                session, payload.decode("utf-8", errors="replace")
            )
            return False
        if opcode == wire.OP_SPEC:
            name = payload.decode("utf-8", errors="replace").strip()
            try:
                compiled = self.registry.get(name)
            except ReproError as exc:
                await self._send_frame(writer, wire.OP_ERR, str(exc).encode())
                return False
            applied = self._bind_session(session, compiled)
            # A durable re-attach keeps the recovered pinned build; sync
            # the letter table of *that* build, not a post-swap one.
            compiled = session.compiled
            suffix = "" if applied is None else f" applied={applied}"
            count = len(self.registry.letter_lines(compiled.name))
            detail = f"spec {compiled.name}{suffix} letters={count}"
            # The OK reply and the letter table travel back to back: the
            # client knows from ``letters=<k>`` (k > 0) that exactly one
            # OP_LETTERS frame follows before any other reply.
            writer.write(wire.encode_frame(wire.OP_OK, detail.encode()))
            if count:
                writer.write(self._letters_frame(compiled))
            await writer.drain()
            return False
        if opcode == wire.OP_UPDATE:
            # utf-8 payload: a header line then the optional body.
            # ``scenario=<name> [force=1]`` or ``doc [force=1]\n<text>``.
            text = payload.decode("utf-8", errors="replace")
            header, _, body = text.partition("\n")
            tokens = header.split()
            force = "force=1" in tokens[1:]
            detail = None
            try:
                if tokens and tokens[0].startswith("scenario="):
                    detail = self._apply_update(
                        scenario=tokens[0][len("scenario="):], force=force
                    )
                elif tokens and tokens[0] == "doc":
                    detail = self._apply_update(text=body, force=force)
            except ReproError as exc:
                await self._send_frame(writer, wire.OP_ERR, str(exc).encode())
                return False
            if detail is None:
                await self._send_frame(
                    writer, wire.OP_ERR, b"malformed UPDATE header"
                )
                return False
            await self._send_frame(writer, wire.OP_OK, detail.encode())
            return False
        if opcode == wire.OP_STATUS:
            await self._send_status_frame(writer, session)
            return False
        if opcode == wire.OP_METRICS:
            text = get_registry().format_prometheus()
            await self._send_frame(
                writer, wire.OP_OK, b"metrics\n" + text.encode("utf-8")
            )
            return False
        if opcode == wire.OP_RESET:
            if self._durable(session):
                self._append_record(session, durability.REC_RESET, b"", 0)
            session.reset()
            await self._send_frame(writer, wire.OP_OK, b"reset")
            return False
        if opcode == wire.OP_BYE:
            if self._durable(session):
                self._snapshot_session(session)
            await self._send_frame(
                writer, wire.OP_OK, f"bye events={session.events}".encode()
            )
            return True
        # Unknown opcode: the frame boundary is intact, so report and
        # continue — the binary analogue of the text ``ERR`` for an
        # unknown verb.
        await self._send_frame(
            writer, wire.OP_ERR, f"unknown opcode 0x{opcode:02x}".encode()
        )
        return False

    async def _send_status_frame(
        self, writer: asyncio.StreamWriter, session: _Session
    ) -> None:
        """The status reply as a frame: text keyword → opcode, rest → payload."""
        reply = format_status(session.status())
        keyword, _, detail = reply.partition(" ")
        op = wire.OP_OK if keyword == "OK" else wire.OP_VIOLATION
        await self._send_frame(writer, op, detail.encode("utf-8"))

    def _monitor(self, session: _Session) -> SpecMonitor:
        """The session's monitor, created on its first event.

        Pinned to the session's ``CompiledSpec``, not a name lookup: a
        concurrent hot swap must not mix machines mid-session.
        """
        monitor = session.monitor
        if monitor is None:
            monitor = self.registry.new_monitor_for(session.compiled)
            session.monitor = monitor
        return monitor

    def _handle_events(self, session: _Session, payload: bytes) -> None:
        """Step one ``EVENTS`` batch: silent on success, like text ``EVENT``.

        A structurally malformed payload raises
        :class:`~repro.service.wire.FrameError` (the loop answers with an
        ``ERR`` frame); ids outside the letter table are dropped and
        counted as errors per id, so valid events keep consecutive
        session-global indices exactly as if the bad ids had been
        malformed text lines.  The whole batch is one monitor call — the
        amortisation the binary protocol exists for.
        """
        ids = wire.unpack_event_ids(payload)
        n = len(ids)
        if n == 0:
            return
        if self._durable(session):
            # Log the payload verbatim *before* validation: replay then
            # re-runs the identical validation, so dropped/invalid ids
            # are re-counted as errors exactly as they were live.
            if session.since_snapshot >= self.snapshot_every:
                self._snapshot_session(session)
            self._append_record(session, durability.REC_IDS, payload, n)
        compiled = session.compiled
        if compiled is None or compiled.dense is None:
            # No spec bound, or a spec the registry could not tabulate —
            # either way no letter table was ever sent, so the ids cannot
            # mean anything.
            session.errors += n
            self.metrics.record_malformed(n)
            return
        k = compiled.dense.dfa.n_letters
        if min(ids) < 0 or max(ids) >= k:
            valid = array("i", (lid for lid in ids if 0 <= lid < k))
            bad = n - len(valid)
            session.errors += bad
            self.metrics.record_malformed(bad)
            ids = valid
            n = len(ids)
            if n == 0:
                return
        base = session.events
        session.events += n
        monitor = self._monitor(session)
        metrics = self.metrics
        with span("service.batch", spec=compiled.name, events=n):
            start = metrics.clock()
            was_ok = not monitor.violations
            monitor.observe_ids(ids, base_index=base)
            metrics.record_batch(compiled.name, n, metrics.clock() - start)
        if was_ok and monitor.violations:
            # Safety is irremediable: a monitor violates at most once.
            metrics.record_violation()
            session.violation = monitor.violations[0]

    def _handle_event(self, session: _Session, arg: str) -> None:
        """Step one event: silent on success, counted on failure.

        Problems never elicit a reply (events pipeline without per-event
        round-trips); they are surfaced by the next synchronising verb.
        """
        if self._durable(session):
            # Write-ahead: the raw line (malformed or not) is one input.
            # The snapshot check runs first so the checkpoint covers
            # exactly the records before this one, all already applied.
            if session.since_snapshot >= self.snapshot_every:
                self._snapshot_session(session)
            self._append_record(
                session, durability.REC_LINE, arg.encode("utf-8"), 1
            )
        try:
            event = tracefile.parse_line(arg)
        except ReproError:
            session.errors += 1
            self.metrics.record_malformed()
            return
        if event is None:  # comment / blank payload
            return
        if session.compiled is None:
            session.errors += 1
            self.metrics.record_malformed()
            return
        index = session.events
        session.events += 1
        monitor = self._monitor(session)
        metrics = self.metrics
        start = metrics.clock()
        skipped = not monitor.spec.alphabet.contains(event)
        was_ok = not monitor.violations
        monitor.observe(event, index=index)
        metrics.record_event(
            session.compiled.name, metrics.clock() - start, skipped=skipped
        )
        if skipped:
            session.skipped += 1
        if was_ok and monitor.violations:
            # Safety is irremediable: a monitor violates at most once.
            metrics.record_violation()
            session.violation = monitor.violations[0]
