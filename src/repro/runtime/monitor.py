"""Online safety monitors: run specifications against live systems.

A safety specification (prefix-closed trace set) is monitorable: feed the
global event stream through the specification's trace machine, projecting
to the specification's alphabet on the way (``h/α(Γ) ∈ T(Γ)`` is exactly
the soundness condition of Section 2).  A violation is detected at the
*first* event whose projected prefix leaves the trace set — safety
properties have finite witnesses (Alpern & Schneider, cited by the paper).

Monitors are attachable to a :class:`~repro.runtime.system.System` and can
either record violations or raise :class:`~repro.core.errors.MonitorViolation`.

Monitors keep a *bounded* window of recent events (``history_limit``,
default 4096): on unbounded streams — e.g. a long-running
:mod:`repro.service` session — memory stays constant while the violation
report still carries the true global event index.

When a :class:`~repro.automata.build.MachineImage` is supplied, the
monitor steps by integer through the image's flat successor array instead
of re-running the trace machine per event: each in-alphabet event is
encoded to a letter id once and the step is two array reads.  Events in
the alphabet but outside the instantiated letter table (live values the
finite universe never saw) deoptimise to machine stepping and re-enter the
dense array as soon as the machine state is one the image knows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.automata.build import MachineImage
from repro.core.errors import MonitorViolation, RuntimeModelError
from repro.core.events import Event
from repro.core.specification import Specification
from repro.core.traces import Trace
from repro.core.tracesets import FullTraceSet, MachineTraceSet
from repro.machines.base import TraceMachine

__all__ = ["SpecMonitor", "Violation", "DEFAULT_HISTORY_LIMIT"]

#: Default size of the bounded event-history window.
DEFAULT_HISTORY_LIMIT = 4096


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected violation: a recent-event window and the bad event.

    ``index`` is the *global* position of the offending event in the
    observed stream (0-based), even when the stream is longer than the
    monitor's bounded history; ``trace`` holds at most ``history_limit``
    events ending with the offending one.
    """

    spec_name: str
    trace: Trace
    event: Event
    index: int

    def __str__(self) -> str:
        return (
            f"{self.spec_name} violated by event #{self.index} {self.event} "
            f"(projected prefix leaves the trace set)"
        )


class SpecMonitor:
    """Monitors one specification online.

    Only machine-defined trace sets are monitorable (membership must be
    decidable per event); composed trace sets involve existential hiding
    and are checked offline via the checker instead.

    ``machine`` may be supplied to share one compiled (pure, immutable)
    trace machine across many monitors — the service's spec registry
    compiles each specification once and hands the machine to every
    session monitor.  ``dense`` additionally supplies the machine's
    :class:`~repro.automata.build.MachineImage` so in-table events step
    through the flat successor array (``dense_steps``) and only
    out-of-table events fall back to the machine (``fallback_steps``).
    ``history_limit`` bounds the retained event window (``None`` keeps
    everything; only sensible for short offline runs).
    """

    def __init__(
        self,
        spec: Specification,
        raise_on_violation: bool = False,
        *,
        machine: TraceMachine | None = None,
        dense: MachineImage | None = None,
        history_limit: int | None = DEFAULT_HISTORY_LIMIT,
    ) -> None:
        if machine is None:
            if not isinstance(spec.traces, (MachineTraceSet, FullTraceSet)):
                raise RuntimeModelError(
                    f"{spec.name}: only machine trace sets are monitorable online"
                )
            machine = spec.traces.machine()
        if history_limit is not None and history_limit < 1:
            raise RuntimeModelError("history_limit must be positive (or None)")
        self.spec = spec
        self.machine = machine
        self.dense = dense
        self.raise_on_violation = raise_on_violation
        self.history_limit = history_limit
        self.state = self.machine.initial()
        self.alive = self.machine.ok(self.state)
        self.violations: list[Violation] = []
        self.dense_steps = 0
        self.fallback_steps = 0
        self._seen = 0
        self._history: deque[Event] = deque(maxlen=history_limit)
        self._dstate = self._dense_entry()

    def _dense_entry(self) -> int | None:
        """The dense id of the current machine state, if the image has it."""
        if self.dense is None or not self.alive:
            return None
        return self.dense.index.get(self.state)

    def observe(self, event: Event, *, index: int | None = None) -> bool:
        """Feed one global event; returns whether the spec still holds.

        Events outside the specification's alphabet are skipped (the
        projection ``h/α(Γ)``); once violated, the monitor stays violated
        (safety is irremediable).  ``index`` overrides the violation's
        recorded global position — the service passes its session-global
        event index.
        """
        self._history.append(event)
        if index is None:
            index = self._seen
        self._seen += 1
        if not self.alive:
            return False
        if not self.spec.alphabet.contains(event):
            return True
        image = self.dense
        if image is not None and self._dstate is not None:
            lid = image.dfa.table.get(event)
            if lid is not None:
                self.dense_steps += 1
                nxt = image.dfa.dense[self._dstate * image.dfa.n_letters + lid]
                if nxt < len(image.states):
                    self._dstate = nxt
                    self.state = image.states[nxt]
                    return True
                return self._violate(event, index)
        # In the alphabet but outside the instantiated table (a live
        # value the finite universe never saw), or already off the dense
        # array from an earlier such event: step the machine and re-enter
        # the dense array as soon as the state is a known one.
        if image is not None:
            self.fallback_steps += 1
        self.state = self.machine.step(self.state, event)
        if not self.machine.ok(self.state):
            return self._violate(event, index)
        if image is not None:
            self._dstate = image.index.get(self.state)
        return True

    def observe_ids(self, ids, *, base_index: int | None = None) -> int | None:
        """Step a whole batch of letter ids through the dense array.

        ``ids`` are letter ids of the monitor's image table (the binary
        wire protocol's ``EVENTS`` payload); event ``j`` of the batch has
        session-global index ``base_index + j``.  Returns the
        *batch-relative* offset of the first violation detected inside
        this batch, or ``None`` — the recorded
        :class:`Violation`'s ``index`` is already resolved to the global
        position, so callers never do the arithmetic twice.

        Semantics match feeding the decoded events through
        :meth:`observe` one by one (tested as a law): every batch event
        counts as seen and enters the bounded history, events after a
        violation no longer step, and a deoptimised monitor (off the
        dense array after an out-of-table event) falls back to machine
        stepping per event.  The fast path is one tight loop over the
        flat successor array — no per-event dict lookups, spans, or
        clock reads.
        """
        n = len(ids)
        if base_index is None:
            base_index = self._seen
        image = self.dense
        if image is None:
            raise RuntimeModelError(
                f"{self.spec.name}: observe_ids needs a dense image"
            )
        letters = image.dfa.table.letters
        if self.alive and self._dstate is None:
            # Deoptimised: an earlier out-of-table event pushed the
            # monitor off the dense array.  Correctness over speed.
            offset = None
            for j in range(n):
                was_alive = self.alive
                self.observe(letters[ids[j]], index=base_index + j)
                if was_alive and not self.alive:
                    offset = j
            return offset
        if not self.alive:
            # Irremediable: count and record, never step.
            self._seen += n
            self._history.extend(letters[lid] for lid in ids)
            return None
        dfa = image.dfa
        dense = dfa.dense
        k = dfa.n_letters
        live = len(image.states)
        state = self._dstate
        offset: int | None = None
        for j in range(n):
            nxt = dense[state * k + ids[j]]
            if nxt < live:
                state = nxt
            else:
                offset = j
                break
        consumed = n if offset is None else offset + 1
        self._seen += n
        self.dense_steps += consumed
        self._history.extend(letters[ids[j]] for j in range(consumed))
        # Commit the machine state reached by the last *good* step —
        # exactly where per-event observe() leaves it on a violation.
        self.state = image.states[state]
        if offset is None:
            self._dstate = state
            return None
        self._violate(letters[ids[offset]], base_index + offset)
        # Post-violation batch events still enter the bounded history,
        # exactly as per-event observe() would have recorded them.
        self._history.extend(letters[ids[j]] for j in range(consumed, n))
        return offset

    def _violate(self, event: Event, index: int) -> bool:
        self.alive = False
        self._dstate = None
        v = Violation(
            self.spec.name, Trace(tuple(self._history)), event, index
        )
        self.violations.append(v)
        if self.raise_on_violation:
            raise MonitorViolation(str(v), v.trace, event)
        return False

    @property
    def ok(self) -> bool:
        return self.alive

    @property
    def events_seen(self) -> int:
        """Total number of events observed (including skipped ones)."""
        return self._seen

    def reset(self) -> None:
        self.state = self.machine.initial()
        self.alive = self.machine.ok(self.state)
        self.violations.clear()
        self.dense_steps = 0
        self.fallback_steps = 0
        self._seen = 0
        self._history.clear()
        self._dstate = self._dense_entry()

    def __repr__(self) -> str:
        status = "ok" if self.alive else "violated"
        return f"SpecMonitor({self.spec.name}, {status})"
