"""Monitoring-service client: retrying connector and pipelined sender.

The client mirrors the protocol's asymmetry: events are *enqueued* into a
bounded send queue (``await send_event`` blocks when the queue is full —
backpressure propagates from the server, through TCP flow control, to the
producer),
while synchronising verbs (``HELLO``/``SPEC``/``STATUS``/``RESET``/``BYE``)
first drain the queue, then perform one request/reply round-trip.

Connection establishment retries with exponential backoff and full
jitter; the delay schedule is a pure function (:func:`backoff_delays`) so
tests can check it without sleeping.  If the link dies mid-stream, the
sender records the failure and keeps consuming the queue — producers
never deadlock on a dead connection — and the next synchronising verb
raises ``ConnectionError``.

A client constructed with ``proto=2`` asks the server to upgrade to the
binary framing (:mod:`repro.service.wire`): after ``SPEC`` it stores the
synced letter table and :meth:`send_event` then accumulates letter ids
into an ``array('i')`` batch, flushed as one ``EVENTS`` frame every
``batch`` events (and before any synchronising verb, so ordering and
verdicts are indistinguishable from the text path).  Events outside the
table fall back to per-event ``EVENT`` frames in stream order.  When the
server is older than the binary protocol the client degrades to text
automatically — ``proto=2`` is a request, not a requirement.

A client constructed with ``session="key"`` asks for a *durable* session
(:mod:`repro.service.durability`): the HELLO carries the key, and when
the server confirms ``durable=1`` the client keeps every sent event line
in an in-memory resend log, trimmed as ``applied=`` watermarks come back
on status-shaped replies.  If the connection dies, the next
synchronising verb transparently reconnects, re-attaches the same spec,
and resends exactly the suffix the server had not yet logged — the
watermark makes at-least-once delivery exactly-once.  Servers without a
data directory (or predating the feature) simply never confirm, and the
client behaves as a plain session.  A server that cannot recover the key
answers ``ERR``, and :meth:`MonitorClient.connect` raises
:class:`~repro.core.errors.ReproError` rather than continue without
exactly-once delivery.

A client instance is designed to be driven from one task; it is not a
connection pool.
"""

from __future__ import annotations

import asyncio
import random
from array import array
from typing import Iterator

from repro.core.errors import ReproError
from repro.core.events import Event
from repro.obs.registry import get_registry
from repro.runtime import tracefile
from repro.service import wire
from repro.service.protocol import Reply, SessionStatus, parse_reply

__all__ = ["MonitorClient", "ServiceUnavailable", "backoff_delays", "DEFAULT_BATCH"]

#: Default ``EVENTS`` batch size for binary sessions.  Large enough to
#: amortise framing and queue traffic, small enough that a violation
#: surfaces within a few thousand events of being fed.
DEFAULT_BATCH = 256

#: Synchronising verb → request opcode (binary sessions translate the
#: same text verbs the caller-facing API has always used).
_VERB_OPS = {
    "SPEC": wire.OP_SPEC,
    "UPDATE": wire.OP_UPDATE,
    "STATUS": wire.OP_STATUS,
    "METRICS": wire.OP_METRICS,
    "RESET": wire.OP_RESET,
    "BYE": wire.OP_BYE,
}

#: Reply opcode → the text keyword whose grammar the payload reuses.
_REPLY_KEYWORDS = {
    wire.OP_OK: "OK",
    wire.OP_ERR: "ERR",
    wire.OP_VIOLATION: "VIOLATION",
}


class ServiceUnavailable(ReproError):
    """Raised when the server cannot be reached after all retries."""


def _rejects_hello_argument(detail: str) -> bool:
    """Whether an ``ERR`` detail is an older server refusing a HELLO field.

    Servers from before durable sessions parse the argument with
    ``protocol.parse_hello_proto`` and answer ``session=`` with
    ``malformed HELLO argument …`` or, behind ``proto=N``, ``malformed
    HELLO proto …``; servers from before negotiation answer any argument
    with ``HELLO takes no argument``.  Only these replies license the
    next, plainer HELLO.
    """
    return detail.startswith(("malformed HELLO", "HELLO takes no argument"))


def backoff_delays(
    retries: int,
    *,
    base: float = 0.05,
    cap: float = 2.0,
    rng: random.Random | None = None,
) -> Iterator[float]:
    """Exponential backoff with full jitter: ``U(0, min(cap, base·2ⁱ))``.

    Yields one delay per retry (the first connection attempt is
    immediate).  Full jitter decorrelates reconnect storms when many
    clients lose the same server at once.
    """
    rng = rng if rng is not None else random.Random()
    for attempt in range(retries):
        yield rng.uniform(0.0, min(cap, base * (2.0**attempt)))


class MonitorClient:
    """One session against a :class:`~repro.service.server.MonitorServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        spec: str | None = None,
        connect_retries: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        queue_size: int = 1024,
        rng: random.Random | None = None,
        proto: int = 1,
        batch: int = DEFAULT_BATCH,
        session: str | None = None,
        resume: bool = True,
    ) -> None:
        if batch < 1:
            raise ReproError("batch size must be positive")
        self.host = host
        self.port = port
        self.spec = spec
        #: Durable-session key (None = plain session).  :attr:`durable`
        #: records whether the server actually confirmed the key;
        #: ``resume=False`` keeps the resend log but disables the
        #: transparent reconnect (tests drive the pieces separately).
        self.session = session
        self.resume = resume
        self.durable = False
        self._sent_log: list[str] = []
        self._base = 0  # inputs the server had before this client object
        self._trimmed = 0  # acked lines dropped from the front of the log
        self._bound_spec: str | None = None
        self._resuming = False
        self._closing = False
        self.connect_retries = connect_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng
        #: Protocol version to *request*; :attr:`proto` holds what the
        #: server actually agreed to once connected.
        self.requested_proto = proto
        self.proto = 1
        self.batch = batch
        self.letters: tuple[str, ...] = ()
        self._line_ids: dict[str, int] = {}
        self._event_ids: dict[Event, int | None] = {}
        self._pending = array("i")
        self._queue: asyncio.Queue[str | bytes | None] = asyncio.Queue(
            maxsize=queue_size
        )
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._sender: asyncio.Task | None = None
        self._send_error: Exception | None = None
        self.server_specs: tuple[str, ...] = ()
        self.events_sent = 0
        #: Connection attempts made by the last :meth:`connect` (≥ 1 on
        #: success; retries beyond the first also feed the
        #: ``repro_client_connect_retries_total`` counter).
        self.connect_attempts = 0

    # -- lifecycle -----------------------------------------------------------

    async def connect(self) -> None:
        """Connect (with retry), say HELLO, and bind ``spec`` if given."""
        delays = backoff_delays(
            self.connect_retries,
            base=self.backoff_base,
            cap=self.backoff_cap,
            rng=self._rng,
        )
        last_error: Exception | None = None
        self._send_error = None
        self.connect_attempts = 0
        for attempt in range(self.connect_retries + 1):
            self.connect_attempts = attempt + 1
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                break
            except OSError as exc:
                last_error = exc
                try:
                    delay = next(delays)
                except StopIteration:
                    break
                await asyncio.sleep(delay)
        else:  # pragma: no cover - loop always breaks
            pass
        if self.connect_attempts > 1:
            get_registry().counter(
                "repro_client_connect_retries_total",
                help="client reconnect attempts beyond the first",
            ).inc(self.connect_attempts - 1)
        if self._writer is None:
            raise ServiceUnavailable(
                f"cannot reach {self.host}:{self.port} after "
                f"{self.connect_retries + 1} attempts: {last_error}"
            )
        self._sender = asyncio.create_task(self._drain_queue(), name="repro-client-send")
        self.proto = 1  # negotiation itself is always text
        self.durable = False
        want = self.requested_proto
        # Fallback ladder for older servers, which reject unknown HELLO
        # arguments with a clean ERR: first the full form, then (when a
        # session key was the novelty) proto-only, then the bare HELLO
        # every server has always answered.  Any other ERR to a durable
        # HELLO is a server that knows ``session=`` but could not recover
        # the key: falling back would silently drop exactly-once.
        parts = []
        if want > 1:
            parts.append(f"proto={want}")
        if self.session is not None:
            parts.append(f"session={self.session}")
        attempts = ["HELLO " + " ".join(parts) if parts else "HELLO"]
        if want > 1 and self.session is not None:
            attempts.append(f"HELLO proto={want}")
        if attempts[-1] != "HELLO":
            attempts.append("HELLO")
        hello = await self._sync(attempts[0])
        for sent, fallback in zip(attempts, attempts[1:]):
            if hello.kind == "ok":
                break
            if "session=" in sent and not _rejects_hello_argument(hello.detail):
                await self.close()
                raise ReproError(
                    f"server could not open durable session "
                    f"{self.session!r}: {hello.detail}"
                )
            hello = await self._sync(fallback)
        if hello.kind != "ok":
            await self.close()
            raise ReproError(f"server rejected HELLO: {hello.detail}")
        # agreed = min(requested, server max); the min() here is only a
        # guard against a server granting more than we asked for.
        self.proto = min(self._agreed_proto(hello.detail), want) if want > 1 else 1
        self.durable = "durable=1" in hello.detail.split()
        specs_field = hello.detail.rpartition("specs=")[2]
        self.server_specs = tuple(n for n in specs_field.split(",") if n)
        if self.spec is not None:
            await self.use_spec(self.spec)

    @staticmethod
    def _agreed_proto(detail: str) -> int:
        """The version a HELLO reply grants: ``repro-service <ver> ...``."""
        parts = detail.split()
        if len(parts) >= 2:
            try:
                return max(1, int(parts[1]))
            except ValueError:
                pass
        return 1

    async def close(self) -> SessionStatus | None:
        """Gracefully drain, say BYE, and close; returns nothing on a dead link."""
        if self._writer is None:
            return None
        self._closing = True
        try:
            await self._sync("BYE")
        except (ReproError, ConnectionError):
            pass
        finally:
            await self._stop_sender()
            # Re-read the attribute: a resume attempt racing the BYE can
            # have torn down and nulled the writer underneath us.
            writer = self._writer
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            self._reader = self._writer = None
            self._closing = False
        return None

    async def __aenter__(self) -> "MonitorClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- protocol ------------------------------------------------------------

    async def use_spec(self, name: str) -> None:
        reply = await self._sync(f"SPEC {name}")
        if reply.kind != "ok":
            raise ReproError(f"server rejected spec {name!r}: {reply.detail}")
        applied = self._applied_field(reply.detail)
        self.spec = name
        self.letters = ()
        self._line_ids = {}
        self._event_ids = {}
        if self.proto >= 2:
            # ``letters=<k>`` with k > 0 promises exactly one OP_LETTERS
            # frame back to back with the OK reply.
            field = reply.detail.rpartition("letters=")[2]
            try:
                count = int(field) if field else 0
            except ValueError:
                count = 0
            if count:
                opcode, payload = await self._read_frame()
                if opcode != wire.OP_LETTERS:
                    raise ReproError(
                        f"expected a LETTERS frame after SPEC, "
                        f"got opcode 0x{opcode:02x}"
                    )
                self.letters = tuple(wire.unpack_letters(payload))
                self._line_ids = {
                    line: i for i, line in enumerate(self.letters)
                }
        if self.durable and applied is not None:
            if name == self._bound_spec:
                # Re-attach after a reconnect: trim what the server has
                # durably applied, resend the rest through the fresh
                # letter table (ids may differ after a hot swap).
                self._note_applied(applied)
                for line in self._sent_log:
                    await self._send_input(line)
            else:
                # New binding (or a brand-new client adopting recovered
                # server state): the server's watermark becomes the base
                # this client's resend log counts from.
                self._sent_log = []
                self._base = applied
                self._trimmed = 0
                self._bound_spec = name

    @staticmethod
    def _applied_field(detail: str) -> int | None:
        """The ``applied=<n>`` watermark of a reply detail, if present."""
        for token in detail.split():
            if token.startswith("applied="):
                try:
                    return int(token[len("applied="):])
                except ValueError:
                    return None
        return None

    def _note_applied(self, applied: int | None) -> None:
        """Trim the resend log's prefix the server has durably applied."""
        if applied is None:
            return
        acked = applied - self._base - self._trimmed
        if acked > 0:
            del self._sent_log[:acked]
            self._trimmed += acked

    async def update_document(
        self,
        *,
        text: str | None = None,
        scenario: str | None = None,
        force: bool = False,
    ) -> dict[str, str]:
        """Hot-swap the server's compiled specs; returns the reply fields.

        Exactly one of ``text`` (an OUN document) or ``scenario`` (a
        built-in workload scenario name) selects the source;
        ``force=True`` swaps in freshly compiled machines even when the
        content is unchanged.  The reply fields are ``{"changed": "1",
        "unchanged": "2", "added": "0", "specs": "A"}``-shaped.

        Deliberately does **not** rebind this session: by the drain
        guarantee, a bound session keeps its current machine until it
        rebinds.  Call :meth:`use_spec` afterwards to attach to the
        swapped spec — on a binary session that rebind re-syncs the
        letter table (the ``LETTERS`` resync), and like any ``SPEC`` it
        resets the session's counters and history.
        """
        if (text is None) == (scenario is None):
            raise ReproError(
                "update_document needs exactly one of text= or scenario="
            )
        suffix = " force=1" if force else ""
        if scenario is not None:
            # one header line in both framings (the binary payload is
            # byte-for-byte the text argument).
            reply = await self._sync(f"UPDATE scenario={scenario}{suffix}")
        elif self.proto >= 2:
            payload = f"doc{suffix}\n{text}".encode("utf-8")
            opcode, raw = await self._request_frame(wire.OP_UPDATE, payload)
            keyword = _REPLY_KEYWORDS.get(opcode)
            if keyword is None:
                raise ReproError(f"unexpected reply frame 0x{opcode:02x}")
            body = raw.decode("utf-8", errors="replace")
            reply = parse_reply(f"{keyword} {body}" if body else keyword)
        else:
            reply = await self._update_text_document(text or "", suffix)
        if reply.kind != "ok" or not reply.detail.startswith("update "):
            raise ReproError(f"server rejected UPDATE: {reply.detail}")
        from repro.service.protocol import _parse_fields

        fields, _ = _parse_fields(reply.detail[len("update "):])
        return fields

    async def _update_text_document(self, text: str, suffix: str) -> Reply:
        """The text protocol's one multi-line request: header + body lines."""
        if self._writer is None or self._reader is None:
            raise ReproError("client is not connected")
        await self._queue.join()
        if self._send_error is not None:
            raise ConnectionError(
                f"send failed mid-stream: {self._send_error}"
            ) from self._send_error
        lines = text.split("\n")
        self._writer.write(
            f"UPDATE lines={len(lines)}{suffix}\n".encode("utf-8")
        )
        for line in lines:
            self._writer.write(line.encode("utf-8") + b"\n")
        await self._writer.drain()
        raw = await self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return parse_reply(raw.decode("utf-8", errors="replace"))

    async def send_event(self, event: Event | str) -> None:
        """Enqueue one event; blocks when the bounded queue is full.

        On a binary session an event found in the synced letter table
        joins the pending ``array('i')`` batch (flushed as one ``EVENTS``
        frame at :attr:`batch` ids, or by the next synchronising verb);
        anything else — out-of-table events, sessions without a letter
        table — flushes the batch first and travels as a per-event
        ``EVENT`` frame, so stream order is preserved exactly.
        """
        if self.session is not None and self.durable:
            # Durable sessions render the line eagerly: the resend log
            # must hold wire-identical text so a replayed suffix means
            # byte-for-byte what the lost original meant.
            line = (
                tracefile.format_event(event)
                if isinstance(event, Event)
                else event
            )
            self._sent_log.append(line)
            await self._send_input(line)
            self.events_sent += 1
            return
        if self.proto >= 2:
            lid = self._letter_id(event)
            if lid is not None:
                self._pending.append(lid)
                self.events_sent += 1
                if len(self._pending) >= self.batch:
                    await self._flush_pending()
                return
            line = (
                tracefile.format_event(event)
                if isinstance(event, Event)
                else event
            )
            await self._flush_pending()
            await self._queue.put(
                wire.encode_frame(wire.OP_EVENT, line.encode("utf-8"))
            )
            self.events_sent += 1
            return
        line = tracefile.format_event(event) if isinstance(event, Event) else event
        await self._queue.put(f"EVENT {line}")
        self.events_sent += 1

    async def _send_input(self, line: str) -> None:
        """Enqueue one already-rendered event line, batching when binary."""
        if self.proto >= 2:
            lid = self._line_ids.get(line) if self._line_ids else None
            if lid is not None:
                self._pending.append(lid)
                if len(self._pending) >= self.batch:
                    await self._flush_pending()
                return
            await self._flush_pending()
            await self._queue.put(
                wire.encode_frame(wire.OP_EVENT, line.encode("utf-8"))
            )
            return
        await self._queue.put(f"EVENT {line}")

    async def send_trace(self, events) -> None:
        """Enqueue every event of an iterable (e.g. a loaded Trace)."""
        for event in events:
            await self.send_event(event)

    async def status(self) -> SessionStatus:
        """Synchronise and fetch the session verdict."""
        reply = await self._sync("STATUS")
        if reply.status is None:
            raise ReproError(f"malformed status reply: {reply.detail}")
        if self.durable:
            self._note_applied(reply.status.applied)
        return reply.status

    async def reset(self) -> None:
        reply = await self._sync("RESET")
        if reply.kind != "ok":
            raise ReproError(f"server rejected RESET: {reply.detail}")

    async def metrics(self) -> str:
        """Fetch the server's Prometheus text dump via the METRICS verb.

        On the text protocol the reply is its one multi-line shape: ``OK
        metrics lines=<n>`` followed by exactly ``n`` raw exposition
        lines, read here by count so embedded text never confuses the
        framing.  A binary session gets the whole dump in one frame —
        payload ``metrics\\n`` + exposition — with no counting at all.
        """
        if self.proto >= 2:
            opcode, payload = await self._request_frame(wire.OP_METRICS)
            text = payload.decode("utf-8", errors="replace")
            if opcode != wire.OP_OK or not text.startswith("metrics"):
                raise ReproError(f"server rejected METRICS: {text}")
            return text.partition("\n")[2]
        reply = await self._sync("METRICS")
        if reply.kind != "ok" or not reply.detail.startswith("metrics "):
            raise ReproError(f"server rejected METRICS: {reply.detail}")
        try:
            count = int(reply.detail.rpartition("lines=")[2])
        except ValueError as exc:
            raise ReproError(
                f"malformed METRICS reply: {reply.detail}"
            ) from exc
        assert self._reader is not None
        lines = []
        for _ in range(count):
            raw = await self._reader.readline()
            if not raw:
                raise ConnectionError("server closed mid-METRICS")
            lines.append(raw.decode("utf-8", errors="replace").rstrip("\n"))
        return "\n".join(lines) + ("\n" if lines else "")

    # -- internals -----------------------------------------------------------

    def _letter_id(self, event: Event | str) -> int | None:
        """The synced letter id of an event, or None for out-of-table.

        :class:`~repro.core.events.Event` lookups are memoised (including
        negative results): a session streams many occurrences of few
        distinct events, so the ``format_event`` rendering runs once per
        distinct event, not once per occurrence.
        """
        if not self._line_ids:
            return None
        if isinstance(event, Event):
            if event in self._event_ids:
                return self._event_ids[event]
            lid = self._line_ids.get(tracefile.format_event(event))
            self._event_ids[event] = lid
            return lid
        return self._line_ids.get(event)

    async def _flush_pending(self) -> None:
        """Enqueue the pending letter-id batch as one ``EVENTS`` frame."""
        if not self._pending:
            return
        payload = wire.pack_event_ids(self._pending)
        del self._pending[:]
        await self._queue.put(wire.encode_frame(wire.OP_EVENTS, payload))

    async def _drain_queue(self) -> None:
        assert self._writer is not None
        while True:
            item = await self._queue.get()
            try:
                if item is None:
                    return
                if self._send_error is not None:
                    continue  # link is dead: consume so producers never block
                try:
                    if isinstance(item, bytes):  # a pre-encoded frame
                        self._writer.write(item)
                    else:
                        self._writer.write(item.encode("utf-8") + b"\n")
                    await self._writer.drain()
                except (ConnectionError, OSError) as exc:
                    self._send_error = exc
            finally:
                self._queue.task_done()

    async def _read_frame(self) -> tuple[int, bytes]:
        assert self._reader is not None
        try:
            return await wire.read_frame(self._reader)
        except asyncio.IncompleteReadError:
            raise ConnectionError("server closed the connection") from None

    async def _request_frame(
        self, opcode: int, payload: bytes = b""
    ) -> tuple[int, bytes]:
        """Drain queued events, then one framed request/reply round-trip."""
        if self._writer is None or self._reader is None:
            raise ReproError("client is not connected")
        await self._flush_pending()
        await self._queue.join()
        if self._send_error is not None:
            raise ConnectionError(
                f"send failed mid-stream: {self._send_error}"
            ) from self._send_error
        self._writer.write(wire.encode_frame(opcode, payload))
        await self._writer.drain()
        return await self._read_frame()

    async def _stop_sender(self) -> None:
        if self._sender is None:
            return
        await self._queue.put(None)
        try:
            await self._sender
        except (ConnectionError, OSError):
            pass
        self._sender = None

    async def _sync(self, line: str) -> Reply:
        """One synchronising round-trip, resuming a durable session once.

        A dead link on a plain session raises ``ConnectionError`` as
        ever.  On a confirmed-durable session (with ``resume`` enabled)
        the client instead reconnects, re-attaches the bound spec —
        which resends the unacked log suffix — and retries the verb
        once.  The guard flag keeps a failure *during* the resume from
        recursing.
        """
        try:
            return await self._sync_once(line)
        except ConnectionError:
            if not (
                self.durable
                and self.resume
                and not self._resuming
                and not self._closing
            ):
                raise
            await self._resume()
            return await self._sync_once(line)

    async def _resume(self) -> None:
        """Tear down the dead link and rebuild the durable session."""
        self._resuming = True
        try:
            await self._stop_sender()
            if self._writer is not None:
                # close() without wait_closed(): the old transport is
                # already dead, and its close waiter can surface the
                # reset (or a spurious cancel) instead of completing.
                self._writer.close()
            self._reader = self._writer = None
            self._send_error = None
            self._pending = array("i")
            self._queue = asyncio.Queue(maxsize=self._queue.maxsize)
            get_registry().counter(
                "repro_client_resumes_total",
                help="Durable-session reconnect-and-resend recoveries.",
            ).inc()
            await self.connect()
        finally:
            self._resuming = False

    async def _sync_once(self, line: str) -> Reply:
        """Drain the send queue, then one request/reply round-trip.

        Binary sessions translate the verb line to its frame and parse
        the reply payload with the *same* grammar as the text keyword it
        replaces — one :class:`~repro.service.protocol.Reply` shape
        either way, so every caller above is framing-agnostic.
        """
        if self._writer is None or self._reader is None:
            raise ReproError("client is not connected")
        if self.proto >= 2:
            verb, _, arg = line.partition(" ")
            opcode, payload = await self._request_frame(
                _VERB_OPS[verb], arg.encode("utf-8")
            )
            keyword = _REPLY_KEYWORDS.get(opcode)
            if keyword is None:
                raise ReproError(f"unexpected reply frame 0x{opcode:02x}")
            text = payload.decode("utf-8", errors="replace")
            return parse_reply(f"{keyword} {text}" if text else keyword)
        await self._queue.join()
        if self._send_error is not None:
            raise ConnectionError(
                f"send failed mid-stream: {self._send_error}"
            ) from self._send_error
        self._writer.write(line.encode("utf-8") + b"\n")
        await self._writer.drain()
        raw = await self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return parse_reply(raw.decode("utf-8", errors="replace"))
