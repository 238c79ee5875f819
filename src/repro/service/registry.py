"""Spec registry: compile specifications once, share machines everywhere.

Trace machines are pure (``step`` never mutates — see
:mod:`repro.machines.base`), so one compiled machine can drive every
session monitor concurrently; only the per-monitor *state* is private.
The registry is the single place the service pays elaboration and
compilation cost: sessions then spawn monitors in O(1).

Specifications whose trace sets are not machine-defined (compositions
involve existential hiding) are recorded as *unmonitorable* with the
reason, so a session binding to one gets a precise error instead of a
missing name.

Machines are additionally *interned* process-wide by content fingerprint
(:mod:`repro.checker.fingerprint`): two registries — or two specs within
one registry — whose trace sets have identical definitional content
share one machine object, so repeated document loads (service restarts
mid-process, tests, the engine's workers) reuse prior builds.  Machines
hold closures and cannot live in the on-disk DFA cache; interning is the
in-process analogue keyed by the same fingerprints (DESIGN.md §8), and
it doubles as the **compile stage** of the incremental build graph
(:mod:`repro.pipeline`): when a registry is built from document text,
per-node memo hits are reported as ``repro_pipeline_stage_*{stage=
"compile"}``.

Interned entries are *refcounted* by the registries that pin them:
:meth:`SpecRegistry.update` releases a replaced spec's machine and
dense image, and the last release evicts the entry so hot-swapping a
spec under the same name cannot leak the old build.  (A registry that
is simply garbage-collected keeps its pins — eviction triggers on
re-registration, which is the only path that previously leaked without
bound; the ``repro_interned_*`` gauges always reflect live table
sizes.)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.automata.build import MachineImage, machine_to_dense
from repro.checker.fingerprint import fingerprint
from repro.core.errors import FingerprintError, ReproError, RuntimeModelError
from repro.core.specification import Specification
from repro.core.tracesets import FullTraceSet, MachineTraceSet
from repro.machines.base import TraceMachine
from repro.obs.registry import get_registry
from repro.runtime.monitor import DEFAULT_HISTORY_LIMIT, SpecMonitor

__all__ = [
    "CompiledSpec",
    "SpecRegistry",
    "UpdateReport",
    "shared_machine_count",
    "shared_image_count",
    "DEFAULT_DENSE_STATE_LIMIT",
]

#: State budget for the registry's dense pre-compilation.  Deliberately
#: far below the checker's default: a spec whose reachable space is this
#: large is cheaper to monitor by machine stepping than to tabulate.
DEFAULT_DENSE_STATE_LIMIT = 20_000

#: Process-wide machine interning table: trace-set fingerprint → machine.
_SHARED_MACHINES: dict[str, TraceMachine] = {}

#: Process-wide dense-image interning table, keyed by the fingerprint of
#: (normalized trace set, universe, state limit) — the full input of
#: :func:`~repro.automata.build.machine_to_dense`.
_SHARED_IMAGES: dict[str, MachineImage] = {}

#: Pin counts per interned key: how many registry entries currently
#: reference the machine/image.  An entry whose count reaches zero on
#: release is evicted from the table above.
_MACHINE_REFS: dict[str, int] = {}
_IMAGE_REFS: dict[str, int] = {}

#: Compile-stage memo of the incremental build graph: node key (from
#: :mod:`repro.oun.identity`) + build options → the compiled parts.
#: Lets a document reload skip fingerprinting entirely for unchanged
#: specs; entries are purged when their machine/image is evicted.
_COMPILED_BY_NODE: dict[tuple, "_CompiledParts"] = {}


def _sync_intern_gauges() -> None:
    """Mirror the intern-table sizes into the unified metrics registry."""
    registry = get_registry()
    registry.gauge(
        "repro_interned_machines",
        help="Distinct machines in the process-wide intern table.",
    ).set(len(_SHARED_MACHINES))
    registry.gauge(
        "repro_interned_images",
        help="Distinct dense images in the process-wide intern table.",
    ).set(len(_SHARED_IMAGES))


def _normalized(traces):
    """The trace set in canonical (spec-scope) normalized form.

    Interning after normalization means syntactic variants of one spec
    — an unfused rename, a redundant ``True`` conjunct — land on one
    fingerprint and share one machine.  Spec-scope passes are monitor-safe:
    monitors project events to the specification alphabet before stepping.
    Respects the ambient :func:`~repro.passes.use_normalization` toggle.
    """
    from repro.passes import SPEC_SCOPE, normalize_traceset

    return normalize_traceset(traces, SPEC_SCOPE)


def shared_machine_count() -> int:
    """How many distinct machines the process-wide intern table holds."""
    return len(_SHARED_MACHINES)


def shared_image_count() -> int:
    """How many distinct dense images the process-wide table holds."""
    return len(_SHARED_IMAGES)


def _acquire(machine_key: str | None, image_key: str | None) -> None:
    """Pin interned entries for one registry slot."""
    if machine_key is not None:
        _MACHINE_REFS[machine_key] = _MACHINE_REFS.get(machine_key, 0) + 1
    if image_key is not None:
        _IMAGE_REFS[image_key] = _IMAGE_REFS.get(image_key, 0) + 1


def _release(machine_key: str | None, image_key: str | None) -> None:
    """Unpin interned entries; the last pin out evicts them.

    Draining sessions keep the evicted objects alive through their own
    references — eviction only forgets the *table* entry, so a future
    build of identical content compiles afresh instead of resurrecting
    a retired machine.
    """
    evicted = False
    for key, refs, table in (
        (machine_key, _MACHINE_REFS, _SHARED_MACHINES),
        (image_key, _IMAGE_REFS, _SHARED_IMAGES),
    ):
        if key is None or key not in refs:
            continue
        refs[key] -= 1
        if refs[key] <= 0:
            del refs[key]
            table.pop(key, None)
            evicted = True
    if evicted:
        stale = [
            node_key
            for node_key, parts in _COMPILED_BY_NODE.items()
            if parts.machine_key == machine_key
            or (image_key is not None and parts.image_key == image_key)
        ]
        for node_key in stale:
            del _COMPILED_BY_NODE[node_key]
        _sync_intern_gauges()


def _reset_shared_state() -> None:
    """Forget every process-wide table (bench/test isolation only)."""
    _SHARED_MACHINES.clear()
    _SHARED_IMAGES.clear()
    _MACHINE_REFS.clear()
    _IMAGE_REFS.clear()
    _COMPILED_BY_NODE.clear()
    _sync_intern_gauges()


@dataclass(frozen=True, slots=True)
class _CompiledParts:
    """The shareable output of one compile: machine + optional image."""

    machine: TraceMachine
    image: MachineImage | None
    machine_key: str | None
    image_key: str | None


def _build_machine_part(
    traces, *, share: bool
) -> tuple[TraceMachine, str | None]:
    """The (possibly shared) machine for a trace set, plus its pin key."""
    traces = _normalized(traces)
    key = None
    if share:
        try:
            key = fingerprint(traces)
        except FingerprintError:
            key = None  # no stable identity: private machine
    if key is not None:
        machine = _SHARED_MACHINES.get(key)
        if machine is None:
            machine = _SHARED_MACHINES[key] = traces.machine()
            _sync_intern_gauges()
        return machine, key
    return traces.machine(), None


def _build_image_part(
    spec: Specification,
    machine: TraceMachine,
    state_limit: int,
    *,
    share: bool,
) -> tuple[MachineImage | None, str | None]:
    """Pre-compile a spec's machine to a dense image, or ``None``.

    ``None`` means "monitor by machine stepping": the spec's universe
    cannot be derived, the reachable space exceeds ``state_limit``, or the
    compilation fails for any model-level reason.  Dense monitoring is an
    optimisation, never a requirement.
    """
    # Lazy imports: the checker layer reaches back into passes/service
    # metrics, so module-level imports would cycle.
    from repro.checker.compile import instantiated_letters
    from repro.checker.universe import FiniteUniverse

    try:
        universe = FiniteUniverse.for_specs(spec)
        table = instantiated_letters(universe, spec.alphabet)
    except ReproError:
        return None, None
    key = None
    if share:
        try:
            key = fingerprint((_normalized(spec.traces), universe, state_limit))
        except FingerprintError:
            key = None
        if key is not None:
            cached = _SHARED_IMAGES.get(key)
            if cached is not None:
                return cached, key
    try:
        image = machine_to_dense(
            machine, table.letters, state_limit=state_limit, table=table
        )
    except ReproError:
        return None, None
    if key is not None:
        _SHARED_IMAGES[key] = image
        _sync_intern_gauges()
    return image, key


@dataclass(frozen=True, slots=True)
class CompiledSpec:
    """One monitorable specification with its shared compiled machine.

    ``dense`` is the machine's pre-compiled
    :class:`~repro.automata.build.MachineImage` when the registry could
    tabulate it within its state budget (``None`` otherwise); monitors
    step through it by letter id and fall back to ``machine`` for events
    outside the instantiated universe.  ``version`` counts hot swaps of
    the name: a live update that actually changes the compiled machine
    installs a new ``CompiledSpec`` with the next version, while sessions
    bound to the old one keep draining on it.
    """

    name: str
    spec: Specification
    machine: TraceMachine
    dense: MachineImage | None = None
    version: int = 0


@dataclass(frozen=True, slots=True)
class UpdateReport:
    """What a live registry update actually did, by spec name."""

    changed: tuple[str, ...]
    unchanged: tuple[str, ...]
    added: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"changed={len(self.changed)} unchanged={len(self.unchanged)} "
            f"added={len(self.added)}"
        )


class SpecRegistry:
    """Registry of monitorable specifications.

    Construction compiles every spec; afterwards the only mutation path
    is :meth:`update` (the service's hot-swap), which atomically
    replaces whole :class:`CompiledSpec` entries — readers holding a
    ``CompiledSpec`` never observe a half-updated spec.
    """

    def __init__(
        self,
        specs: Iterable[Specification],
        *,
        history_limit: int | None = DEFAULT_HISTORY_LIMIT,
        share_machines: bool = True,
        dense: bool = True,
        dense_state_limit: int = DEFAULT_DENSE_STATE_LIMIT,
        keys: Mapping[str, str] | None = None,
    ) -> None:
        self.history_limit = history_limit
        self._share = share_machines
        self._dense = dense
        self._dense_state_limit = dense_state_limit
        self._compiled: dict[str, CompiledSpec] = {}
        self._unmonitorable: dict[str, str] = {}
        self._letter_lines: dict[str, tuple[str, ...]] = {}
        #: name → interned keys currently pinned by that name's entry.
        self._pins: dict[str, tuple[str | None, str | None]] = {}
        self.update(specs, keys=keys)
        # Refresh even when everything hit the intern tables: a scrape
        # after a registry build should always see current table sizes.
        _sync_intern_gauges()

    @classmethod
    def from_text(cls, text: str, **kwargs) -> "SpecRegistry":
        """Build a registry from OUN document text.

        Loads through the shared incremental pipeline
        (:func:`repro.pipeline.shared_pipeline`) and passes the node
        keys down so the compile stage is memoized per document node.
        """
        from repro.pipeline import shared_pipeline

        build = shared_pipeline().load(text)
        return cls(
            build.specifications().values(), keys=build.keys(), **kwargs
        )

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "SpecRegistry":
        """Build a registry from an OUN document file."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        return cls.from_text(text, **kwargs)

    # -- compile stage ---------------------------------------------------

    def _compile_parts(
        self, spec: Specification, node_key: str | None, force: bool
    ) -> _CompiledParts:
        """Compile one spec's machine/image, through the node memo.

        The memo is only consulted for shared, node-keyed builds (i.e.
        document loads); those record ``stage="compile"`` hit/miss in
        the pipeline counter family.  ``force=True`` bypasses both the
        memo and the intern tables, producing fresh private objects —
        the hot-reload path uses it to swap in a rebuilt machine even
        when the document text is unchanged.
        """
        from repro.passes import normalization_enabled
        from repro.pipeline import record_stage

        memo_key = None
        if node_key is not None and self._share and not force:
            memo_key = (
                node_key,
                normalization_enabled(),
                self._dense,
                self._dense_state_limit,
            )
            parts = _COMPILED_BY_NODE.get(memo_key)
            if parts is not None:
                record_stage("compile", hit=True)
                return parts
        share = self._share and not force
        machine, machine_key = _build_machine_part(spec.traces, share=share)
        image, image_key = (
            _build_image_part(
                spec, machine, self._dense_state_limit, share=share
            )
            if self._dense
            else (None, None)
        )
        parts = _CompiledParts(machine, image, machine_key, image_key)
        if node_key is not None:
            record_stage("compile", hit=False)
        if memo_key is not None:
            _COMPILED_BY_NODE[memo_key] = parts
        return parts

    def update(
        self,
        specs: Iterable[Specification],
        *,
        keys: Mapping[str, str] | None = None,
        force: bool = False,
    ) -> UpdateReport:
        """Register or hot-swap specs; report what actually changed.

        A spec is *unchanged* when compilation lands on the very same
        machine and dense image objects (interning guarantees this for
        definitionally identical content) — its existing entry, version,
        and letter table stay untouched, so bound sessions see nothing.
        A *changed* spec atomically gets a new :class:`CompiledSpec`
        with a bumped ``version``; the replaced entry's interned pins
        are released (evicting them when this was the last pin) and its
        cached letter lines dropped.  Sessions already bound to the old
        ``CompiledSpec`` drain on it undisturbed.
        """
        keys = keys or {}
        changed: list[str] = []
        unchanged: list[str] = []
        added: list[str] = []
        for spec in specs:
            name = spec.name
            old = self._compiled.get(name)
            if not isinstance(spec.traces, (MachineTraceSet, FullTraceSet)):
                self._unmonitorable[name] = (
                    "composed trace sets involve existential hiding and are "
                    "checked offline, not monitored online"
                )
                if old is not None:
                    # the name stopped being monitorable: retire it
                    del self._compiled[name]
                    self._letter_lines.pop(name, None)
                    pins = self._pins.pop(name, None)
                    if pins is not None:
                        _release(*pins)
                    changed.append(name)
                continue
            parts = self._compile_parts(spec, keys.get(name), force)
            if (
                old is not None
                and old.machine is parts.machine
                and old.dense is parts.image
            ):
                unchanged.append(name)
                continue
            version = 0 if old is None else old.version + 1
            self._compiled[name] = CompiledSpec(
                name,
                spec,
                parts.machine,
                parts.image,
                version,
            )
            self._unmonitorable.pop(name, None)
            self._letter_lines.pop(name, None)
            old_pins = self._pins.get(name)
            self._pins[name] = (parts.machine_key, parts.image_key)
            _acquire(parts.machine_key, parts.image_key)
            if old_pins is not None:
                _release(*old_pins)
            (added if old is None else changed).append(name)
        return UpdateReport(tuple(changed), tuple(unchanged), tuple(added))

    def update_from_text(
        self, text: str, *, force: bool = False
    ) -> UpdateReport:
        """Hot-swap from OUN document text via the incremental pipeline."""
        from repro.pipeline import shared_pipeline

        build = shared_pipeline().load(text)
        return self.update(
            build.specifications().values(), keys=build.keys(), force=force
        )

    # -- lookups ---------------------------------------------------------

    def names(self) -> list[str]:
        """Monitorable specification names, sorted."""
        return sorted(self._compiled)

    def __contains__(self, name: str) -> bool:
        return name in self._compiled

    def __len__(self) -> int:
        return len(self._compiled)

    def get(self, name: str) -> CompiledSpec:
        """Look up a compiled spec; raise a precise error if absent."""
        compiled = self._compiled.get(name)
        if compiled is not None:
            return compiled
        if name in self._unmonitorable:
            raise RuntimeModelError(
                f"specification {name!r} is not monitorable: "
                f"{self._unmonitorable[name]}"
            )
        known = ", ".join(self.names()) or "none"
        raise ReproError(f"no specification named {name!r} (have: {known})")

    def letter_lines(self, name: str) -> tuple[str, ...]:
        """The spec's interned alphabet as wire lines, indexed by letter id.

        This is the per-connection letter table the binary protocol syncs
        after ``SPEC``: entry ``i`` is the canonical trace-file line of
        the dense image's letter ``i``, so a client can encode events to
        ``array('i')`` ids and the server can step them without any text
        parsing.  Empty when the spec has no dense image (state space
        above the registry budget) — such sessions fall back to per-event
        text frames.  Cached per spec and invalidated by :meth:`update`
        when a swap changes the compiled machine, so a rebind after a
        hot reload always syncs the *current* table.
        """
        lines = self._letter_lines.get(name)
        if lines is None:
            from repro.runtime.tracefile import format_event

            compiled = self.get(name)
            if compiled.dense is None:
                lines = ()
            else:
                lines = tuple(
                    format_event(letter)
                    for letter in compiled.dense.dfa.table.letters
                )
            self._letter_lines[name] = lines
        return lines

    def new_monitor_for(self, compiled: CompiledSpec) -> SpecMonitor:
        """A fresh monitor pinned to one *specific* compiled spec.

        Sessions use this rather than :meth:`new_monitor` so a hot swap
        cannot mix machines mid-session: the session holds its
        ``CompiledSpec`` and every monitor it spawns steps that exact
        machine/image pair until the session rebinds.
        """
        return SpecMonitor(
            compiled.spec,
            machine=compiled.machine,
            dense=compiled.dense,
            history_limit=self.history_limit,
        )

    def new_monitor(self, name: str) -> SpecMonitor:
        """A fresh monitor over the *current* compiled machine and image."""
        return self.new_monitor_for(self.get(name))
