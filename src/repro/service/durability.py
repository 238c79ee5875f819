"""Durable monitor state: per-worker event logs + session snapshots.

The service's exactly-once story (DESIGN.md §15, docs/operations.md) in
one page.  A *durable* session — one that said ``HELLO session=<key>``
against a server started with a data directory — has every event input
appended to an on-disk log **before** its monitor steps it, and its
monitor state snapshotted periodically.  A restarted worker rebuilds
the session by loading the freshest snapshot and replaying the log
suffix after it through the *same* stepping code the live path uses, so
the recovered dense-monitor state (and therefore every future verdict)
is identical to an uninterrupted run.

Log records reuse the :mod:`repro.service.wire` framing — an opcode byte
and a little-endian u32 payload length — with their own opcode
namespace.  Every record payload starts with one common prefix::

    u32 lsn       per-session-key log sequence number (total order)
    u32 received  event inputs consumed before this record
    u16 keylen    session key length
    bytes key     utf-8 session key

followed by the per-kind body:

=============  ====================================================
``REC_BIND``   utf-8 spec name — the session bound (``SPEC``)
``REC_LINE``   utf-8 event line, exactly as received (1 input)
``REC_IDS``    an ``EVENTS`` payload (u32 count + i32 ids; n inputs)
``REC_RESET``  empty — the session's history was forgotten
=============  ====================================================

``lsn`` is monotonic per key across *all* files — a reconnect may land
on a different worker, so one key's records can span several logs, and
replay merges them by sorting on ``lsn`` alone.  ``received`` counts
every event *input* (each ``EVENT`` line — malformed and comment lines
included — and each id of an ``EVENTS`` batch) and is never reset, not
even by ``RESET``: it is the idempotency watermark.  A client that
resends its unacknowledged tail after a reconnect cannot double-apply
anything, because replay (and the live resume path) skip inputs below
the watermark — at-least-once delivery becomes exactly-once.

Event bodies are logged *verbatim*, before validation: replay re-runs
the same validation, so error counters recover exactly too.

Snapshots are small JSON files (atomic rename) recording the session's
counters, watermark, and the monitor's dense state id.  A deoptimised
monitor (alive but off the dense array) is deliberately *not*
snapshotted — its machine state has no stable serialisation — so
recovery just replays more log; correctness never depends on a snapshot
existing.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core.errors import ReproError
from repro.obs.registry import get_registry
from repro.obs.trace import span
from repro.runtime import tracefile
from repro.runtime.monitor import SpecMonitor
from repro.service import wire

__all__ = [
    "REC_BIND",
    "REC_LINE",
    "REC_IDS",
    "REC_RESET",
    "DEFAULT_FSYNC_EVERY",
    "DEFAULT_SNAPSHOT_EVERY",
    "DurabilityError",
    "Record",
    "RecoveredSession",
    "WorkerStore",
    "encode_record",
    "decode_records",
    "scan_records",
    "load_best_snapshot",
    "recover",
]

# -- record opcodes (own namespace; framing shared with wire.py) ------------
REC_BIND = 0x01  # body: utf-8 spec name
REC_LINE = 0x02  # body: utf-8 event line (1 input)
REC_IDS = 0x03  # body: an EVENTS payload (u32 count + i32 ids; n inputs)
REC_RESET = 0x04  # empty body

#: fsync the log every this many appended records (a crashed *process*
#: loses nothing either way — buffered writes are flushed to the OS page
#: cache per record; fsync bounds what a crashed *host* can lose).
DEFAULT_FSYNC_EVERY = 64

#: Snapshot a session's monitor state every this many event inputs.
DEFAULT_SNAPSHOT_EVERY = 1024

_HEADER = struct.Struct("<BI")  # the wire.py frame header, byte-identical
_PREFIX = struct.Struct("<IIH")  # lsn, received, key length
_U32 = struct.Struct("<I")


class DurabilityError(ReproError):
    """Raised for records or snapshots that violate the on-disk format."""


@dataclass(frozen=True, slots=True)
class Record:
    """One decoded log record."""

    opcode: int
    key: str
    lsn: int
    received: int
    body: bytes

    @property
    def inputs(self) -> int:
        """How many event inputs this record consumes (its watermark width)."""
        if self.opcode == REC_LINE:
            return 1
        if self.opcode == REC_IDS:
            if len(self.body) < _U32.size:
                raise DurabilityError("REC_IDS body shorter than its count")
            return _U32.unpack_from(self.body)[0]
        return 0


def encode_record(
    opcode: int, key: str, lsn: int, received: int, body: bytes = b""
) -> bytes:
    """One complete log record: wire frame header + prefix + body."""
    raw = key.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DurabilityError(f"session key of {len(raw)} bytes exceeds u16")
    return wire.encode_frame(
        opcode, _PREFIX.pack(lsn, received, len(raw)) + raw + body
    )


def decode_records(blob: bytes) -> Iterator[Record]:
    """Decode a log file's bytes; a truncated tail ends the stream cleanly.

    A crash can cut the final record short (the append is not atomic);
    everything before the cut is intact because records are only ever
    appended.  Truncation mid-record therefore stops iteration instead
    of raising — the lost suffix was never acknowledged to any client.
    """
    offset = 0
    total = len(blob)
    while offset + _HEADER.size <= total:
        opcode, length = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return  # torn tail: the record was still being written
        payload = blob[start:end]
        offset = end
        if len(payload) < _PREFIX.size:
            raise DurabilityError("record payload shorter than its prefix")
        lsn, received, keylen = _PREFIX.unpack_from(payload)
        key_end = _PREFIX.size + keylen
        if key_end > len(payload):
            raise DurabilityError("record payload truncated inside its key")
        yield Record(
            opcode=opcode,
            key=payload[_PREFIX.size:key_end].decode("utf-8"),
            lsn=lsn,
            received=received,
            body=payload[key_end:],
        )


def _snapshot_name(key: str) -> str:
    """A filesystem-safe snapshot file name (the key itself is inside)."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32] + ".snap"


class WorkerStore:
    """One worker's durable state: event logs + snapshots under a data dir.

    Layout: ``<data_dir>/worker-<i>/shard-<j>.log`` and
    ``<data_dir>/worker-<i>/snapshots/<hash>.snap``.  The server appends
    every record to ``shard-0.log``; a data directory may also hold
    ``shard-1.log`` …, and recovery reads every one of them
    (:func:`scan_records`).  Appends go through
    a buffered file flushed per record (a killed process loses nothing)
    and ``fsync``-ed every ``fsync_every`` records (bounding what a
    crashed host can lose), with the fsync wall time observed in the
    ``repro_durability_fsync_seconds`` histogram.
    """

    def __init__(
        self,
        data_dir: str | Path,
        worker_id: int = 0,
        *,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> None:
        if fsync_every < 1:
            raise DurabilityError("fsync_every must be positive")
        self.data_dir = Path(data_dir)
        self.worker_id = worker_id
        self.root = self.data_dir / f"worker-{worker_id}"
        (self.root / "snapshots").mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self._files: dict[int, object] = {}
        self._unsynced: dict[int, int] = {}
        registry = get_registry()
        self._c_records = registry.counter(
            "repro_durability_records_total",
            help="event-log records appended",
        )
        self._c_bytes = registry.counter(
            "repro_durability_bytes_total",
            help="event-log bytes appended",
        )
        self._c_snapshots = registry.counter(
            "repro_durability_snapshots_total",
            help="session snapshots written",
        )
        self._g_logs = registry.gauge(
            "repro_durability_open_logs",
            help="event-log files this process holds open",
        )
        self._h_fsync = registry.histogram(
            "repro_durability_fsync_seconds",
            help="wall seconds per event-log fsync",
        )

    # -- log appends ---------------------------------------------------------

    def append(self, shard: int, record: bytes) -> None:
        """Append one encoded record to ``shard-<shard>.log``; flush now."""
        fh = self._files.get(shard)
        if fh is None:
            fh = open(self.root / f"shard-{shard}.log", "ab")
            self._files[shard] = fh
            self._unsynced[shard] = 0
            self._g_logs.inc()
        fh.write(record)
        fh.flush()
        self._c_records.inc()
        self._c_bytes.inc(len(record))
        self._unsynced[shard] += 1
        if self._unsynced[shard] >= self.fsync_every:
            self._fsync(shard, fh)

    def _fsync(self, shard: int, fh) -> None:
        import time

        start = time.perf_counter()
        os.fsync(fh.fileno())
        self._h_fsync.observe(time.perf_counter() - start)
        self._unsynced[shard] = 0

    def sync(self) -> None:
        """fsync every open log (clean-shutdown and snapshot barrier)."""
        for shard, fh in self._files.items():
            if self._unsynced.get(shard):
                self._fsync(shard, fh)

    def close(self) -> None:
        self.sync()
        for fh in self._files.values():
            fh.close()
            self._g_logs.dec()
        self._files.clear()
        self._unsynced.clear()

    # -- snapshots -----------------------------------------------------------

    def write_snapshot(self, payload: dict) -> None:
        """Atomically persist one session snapshot (tmp write + rename)."""
        path = self.root / "snapshots" / _snapshot_name(payload["key"])
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        self._c_snapshots.inc()


# -- recovery ---------------------------------------------------------------


def scan_records(data_dir: str | Path, key: str) -> list[Record]:
    """Every record for ``key`` across all worker dirs, sorted by lsn.

    A reconnect may land a session on a different worker, and one
    worker's records may be spread over several ``shard-*.log`` files,
    so one key's records can be spread over many files; ``lsn`` is monotonic
    per key across its whole life, so the sort alone rebuilds the total
    order.
    """
    records: list[Record] = []
    root = Path(data_dir)
    if not root.exists():
        return records
    for log in sorted(root.glob("worker-*/shard-*.log")):
        for record in decode_records(log.read_bytes()):
            if record.key == key:
                records.append(record)
    records.sort(key=lambda r: r.lsn)
    return records


def load_best_snapshot(data_dir: str | Path, key: str) -> dict | None:
    """The freshest (highest-lsn) snapshot of ``key``, any worker dir."""
    best: dict | None = None
    root = Path(data_dir)
    if not root.exists():
        return None
    for path in sorted(root.glob("worker-*/snapshots/*.snap")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # torn snapshot: the rename never happened
        if payload.get("key") != key:
            continue
        if best is None or payload.get("lsn", 0) > best.get("lsn", 0):
            best = payload
    return best


@dataclass(slots=True)
class RecoveredSession:
    """A durable session rebuilt from snapshot + log-suffix replay.

    ``next_lsn`` / ``received`` seed the live session's counters so new
    records continue the total order and the idempotency watermark;
    ``violation_line`` carries a restored violation's formatted event
    when the in-memory :class:`~repro.runtime.monitor.Violation` (with
    its bounded trace window) did not survive the restart.
    """

    spec: str | None = None
    compiled: object | None = None
    monitor: SpecMonitor | None = None
    events: int = 0
    skipped: int = 0
    errors: int = 0
    received: int = 0
    next_lsn: int = 0
    violation_index: int | None = None
    violation_line: str | None = None
    replayed: int = 0


def _restore_from_snapshot(state: RecoveredSession, snap: dict, registry) -> None:
    """Seed the recovery state from a snapshot (in place)."""
    state.events = int(snap.get("events", 0))
    state.skipped = int(snap.get("skipped", 0))
    state.errors = int(snap.get("errors", 0))
    state.received = int(snap.get("received", 0))
    state.next_lsn = int(snap.get("lsn", 0))
    violation = snap.get("violation")
    if violation is not None:
        state.violation_index = int(violation["index"])
        state.violation_line = violation.get("event")
    name = snap.get("spec")
    if name is None:
        return
    try:
        state.compiled = registry.get(name)
    except ReproError:
        # The document changed across the restart and no longer declares
        # this spec; the session comes back unbound with its counters
        # intact (docs/operations.md, "recovery semantics").
        return
    state.spec = name
    snap_monitor = snap.get("monitor")
    if snap_monitor is None:
        return  # no monitor existed yet; recreated lazily on next event
    monitor = registry.new_monitor_for(state.compiled)
    # Private-field surgery is deliberate: the snapshot *is* the
    # monitor's dense state, and rebuilding it through observe() would
    # need the full event history the bounded window no longer holds.
    monitor._seen = state.events
    if not snap_monitor.get("alive", True):
        monitor.alive = False
        monitor._dstate = None
    else:
        dstate = snap_monitor.get("dstate")
        monitor._dstate = dstate
        if dstate is not None and monitor.dense is not None:
            monitor.state = monitor.dense.states[dstate]
    state.monitor = monitor


def _note_violation(state: RecoveredSession, monitor: SpecMonitor) -> None:
    if not monitor.violations:
        return
    violation = monitor.violations[-1]
    if state.violation_index is None or violation.index < state.violation_index:
        state.violation_index = violation.index
        state.violation_line = tracefile.format_event(violation.event)


def _replay_line(state: RecoveredSession, line: str, registry) -> None:
    """Re-run one EVENT line with the live path's exact accounting."""
    try:
        event = tracefile.parse_line(line)
    except ReproError:
        state.errors += 1
        return
    if event is None:
        return  # comment / blank payload: consumed an input, nothing else
    if state.compiled is None:
        state.errors += 1
        return
    if state.monitor is None:
        state.monitor = registry.new_monitor_for(state.compiled)
    index = state.events
    state.events += 1
    if not state.monitor.spec.alphabet.contains(event):
        state.skipped += 1
    state.monitor.observe(event, index=index)
    _note_violation(state, state.monitor)


def _replay_ids(state: RecoveredSession, body: bytes, skip: int, registry) -> None:
    """Re-run one EVENTS batch, skipping ``skip`` already-applied inputs."""
    ids = wire.unpack_event_ids(body)
    if skip:
        ids = ids[skip:]
    n = len(ids)
    if n == 0:
        return
    compiled = state.compiled
    if compiled is None or getattr(compiled, "dense", None) is None:
        state.errors += n
        return
    k = compiled.dense.dfa.n_letters
    if min(ids) < 0 or max(ids) >= k:
        valid = type(ids)("i", (lid for lid in ids if 0 <= lid < k))
        state.errors += n - len(valid)
        ids = valid
        n = len(ids)
        if n == 0:
            return
    if state.monitor is None:
        state.monitor = registry.new_monitor_for(compiled)
    base = state.events
    state.events += n
    state.monitor.observe_ids(ids, base_index=base)
    _note_violation(state, state.monitor)


def _reset_state(state: RecoveredSession) -> None:
    if state.monitor is not None:
        state.monitor.reset()
    state.events = 0
    state.skipped = 0
    state.errors = 0
    state.violation_index = None
    state.violation_line = None


def recover(data_dir: str | Path, key: str, registry) -> RecoveredSession:
    """Rebuild a session: freshest snapshot + lsn-ordered log replay.

    The replay re-runs every surviving record through the same
    validation and stepping the live handlers use — malformed lines
    count as errors again, out-of-table ids are dropped again, dense
    batches step through ``observe_ids`` again — so counters, the dense
    state, and the first-violation index land exactly where the
    uninterrupted run would have put them.  The ``received`` watermark
    makes the replay idempotent: inputs the snapshot already covers are
    skipped, including partially-covered ``EVENTS`` batches.
    """
    state = RecoveredSession()
    snap = load_best_snapshot(data_dir, key)
    records = scan_records(data_dir, key)
    with span(
        "durability.replay", key=key, snapshot=snap is not None
    ) as sp:
        if snap is not None:
            _restore_from_snapshot(state, snap, registry)
        replayed = get_registry().counter(
            "repro_durability_replayed_records_total",
            help="log records replayed during session recovery",
        )
        for record in records:
            if record.lsn >= state.next_lsn:
                state.next_lsn = record.lsn + 1
            if snap is not None and record.lsn < snap.get("lsn", 0):
                continue  # the snapshot already covers this record
            state.replayed += 1
            replayed.inc()
            if record.opcode == REC_BIND:
                name = record.body.decode("utf-8", errors="replace")
                _reset_state(state)
                state.monitor = None
                try:
                    state.compiled = registry.get(name)
                    state.spec = name
                except ReproError:
                    state.compiled = None
                    state.spec = None
                continue
            if record.opcode == REC_RESET:
                _reset_state(state)
                continue
            inputs = record.inputs
            if record.received + inputs <= state.received:
                continue  # fully below the watermark: already applied
            skip = max(0, state.received - record.received)
            if record.opcode == REC_LINE:
                _replay_line(
                    state, record.body.decode("utf-8", errors="replace"),
                    registry,
                )
            elif record.opcode == REC_IDS:
                _replay_ids(state, record.body, skip, registry)
            else:
                raise DurabilityError(
                    f"unknown record opcode 0x{record.opcode:02x}"
                )
            state.received = record.received + inputs
        sp.set(records=state.replayed, received=state.received)
    return state
