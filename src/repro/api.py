"""The stable public API of ``repro`` — one flat, documented surface.

Everything a library consumer needs, re-exported (or thinly wrapped) from
the internal layers so those layers can keep moving without breaking
callers:

* :func:`parse` — OUN text → document AST;
* :func:`elaborate` — document AST → named core specifications;
* :func:`load` — both steps in one call (text → specifications);
* :func:`compile_spec` — specification → dense DFA over a finite
  universe (derived from the spec when not given);
* :func:`check` — a recorded trace against a specification, returning
  the monitor so callers can inspect violations;
* :func:`verify_refinement` — the paper's refinement relation
  ``concrete ⊑ abstract``, returning an explainable conclusion;
* :class:`Monitor` — the online monitor (``repro.runtime.SpecMonitor``);
* :func:`serve` — run the online-monitoring TCP service over a document;
* :func:`serve_http` — the TCP service plus the HTTP/JSON gateway;
* :func:`update_from_text` — hot-swap a *running* service's compiled
  specs from OUN document text;
* :func:`metrics_text` — this process's metrics registry as Prometheus
  text;
* :class:`Gateway` — a synchronous management facade over a running
  service: register documents, open sessions, send events, query
  status/violations, fan in per-worker metrics.  The HTTP gateway
  (:mod:`repro.gateway`) is a thin routing layer over exactly this
  class, which is what keeps it free of service internals.

These names are also importable from the top-level package
(``from repro import verify_refinement``); the package ``__init__``
resolves them lazily so importing a single submodule stays cheap.

:data:`API_VERSION` tracks the facade's own compatibility promise
(1.2.0 added the management surface: ``Gateway``, ``serve_http``,
``update_from_text``, ``metrics_text``).  2.0.0 is a major bump because
``serve``/``serve_http`` dropped their in-process worker-pool keyword.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.core.errors import (
    ReproError,
    SessionStateError,
    SpecificationError,
    UnknownSessionError,
    UnknownSpecificationError,
)
from repro.runtime.monitor import SpecMonitor as Monitor

__all__ = [
    "API_VERSION",
    "Gateway",
    "Monitor",
    "check",
    "compile_spec",
    "elaborate",
    "load",
    "metrics_text",
    "parse",
    "serve",
    "serve_http",
    "update_from_text",
    "verify_refinement",
]

#: The facade's compatibility version (semver); see the module docstring.
API_VERSION = "2.0.0"


def parse(text: str):
    """Parse OUN document text into its AST (:class:`~repro.oun.parser.Document`)."""
    from repro.oun.parser import parse_document

    return parse_document(text)


def elaborate(doc):
    """Elaborate a parsed document into named core specifications."""
    from repro.oun.elaborate import elaborate as _elaborate

    return _elaborate(doc)


def load(text: str):
    """Parse and elaborate OUN text: ``{name: Specification}``."""
    return elaborate(parse(text))


def compile_spec(spec, universe=None, *, state_limit: int = 100_000):
    """Compile a specification's trace set to a dense DFA.

    ``universe`` defaults to the finite universe derived from the
    specification itself (its objects plus the standard environment).
    """
    from repro.checker.compile import spec_dfa
    from repro.checker.universe import FiniteUniverse

    if universe is None:
        universe = FiniteUniverse.for_specs(spec)
    return spec_dfa(spec, universe, state_limit=state_limit)


def check(spec, events: Iterable) -> Monitor:
    """Check a recorded event sequence against a specification.

    Feeds every event to a fresh :class:`Monitor` and returns it —
    ``monitor.ok`` is the verdict, ``monitor.violations`` the evidence.
    """
    monitor = Monitor(spec)
    for event in events:
        monitor.observe(event)
    return monitor


def verify_refinement(concrete, abstract, universe=None, **kwargs):
    """Decide ``concrete ⊑ abstract`` (Definition 8, alphabet expansion).

    Returns the checker's conclusion object: truthy ``.holds`` plus an
    ``explain()`` narrative.  Keyword arguments (``strategy``, ``depth``,
    …) pass through to :func:`repro.checker.refinement.check_refinement`.
    """
    from repro.checker.refinement import check_refinement

    return check_refinement(concrete, abstract, universe, **kwargs)


def serve(
    document: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 7471,
    metrics_port: int | None = None,
) -> None:
    """Run the online-monitoring TCP service over an OUN document (blocking).

    ``document`` is a path to an ``.oun`` file.  ``metrics_port`` also
    exposes a Prometheus text scrape endpoint.  Returns when interrupted.
    """
    import asyncio

    from repro.service import MonitorServer, SpecRegistry

    registry = SpecRegistry.from_file(document)

    async def run() -> None:
        server = MonitorServer(
            registry, host=host, port=port, metrics_port=metrics_port
        )
        await server.start()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def serve_http(
    document: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    http_host: str = "127.0.0.1",
    http_port: int = 8080,
) -> None:
    """Run the TCP service *and* the HTTP/JSON gateway over it (blocking).

    The library-level equivalent of ``repro serve FILE --http-port N``:
    one :class:`~repro.service.server.MonitorServer` on ``host:port``
    (``port=0`` picks an ephemeral one) fronted by the REST gateway of
    :mod:`repro.gateway` on ``http_host:http_port``.  See
    ``docs/http-api.md`` for the endpoint reference.
    """
    import asyncio

    from repro.gateway import GatewayServer
    from repro.service import MonitorServer, SpecRegistry

    registry = SpecRegistry.from_file(document)

    async def run() -> None:
        server = MonitorServer(registry, host=host, port=port)
        await server.start()
        loop = asyncio.get_running_loop()
        # The Gateway speaks TCP to the server this loop runs, so its
        # blocking open/close must happen off-loop.
        gateway = Gateway(host, server.port)
        await loop.run_in_executor(None, gateway.open)
        front = GatewayServer(gateway, host=http_host, port=http_port)
        front.start()
        try:
            await server.serve_forever()
        finally:
            await loop.run_in_executor(None, front.close)
            await loop.run_in_executor(None, gateway.close)
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def metrics_text() -> str:
    """This process's metrics registry in Prometheus text exposition format.

    A snapshot of :func:`repro.obs.registry.get_registry` — the same text
    the service's ``METRICS`` verb and ``--metrics-port`` endpoint serve.
    """
    from repro.obs.registry import get_registry

    return get_registry().format_prometheus()


def _update_summary(fields: dict) -> dict:
    """Normalise the wire's UPDATE reply fields into a typed report."""
    specs = [n for n in fields.get("specs", "").split(",") if n and n != "-"]
    return {
        "changed": int(fields.get("changed", 0)),
        "unchanged": int(fields.get("unchanged", 0)),
        "added": int(fields.get("added", 0)),
        "specs": specs,
    }


def update_from_text(
    text: str | None = None,
    *,
    scenario: str | None = None,
    host: str = "127.0.0.1",
    port: int = 7471,
    force: bool = False,
    proto: int = 1,
    retries: int = 5,
) -> dict:
    """Hot-swap the compiled specs of a *running* service (the UPDATE verb).

    Exactly one of ``text`` (an OUN document) or ``scenario`` (a built-in
    workload scenario name) selects the source.  ``text`` is validated
    locally first, so syntax and elaboration problems raise their precise
    :class:`~repro.core.errors.ReproError` subclass before anything
    touches the wire.  ``force=True`` swaps in freshly compiled machines
    even when the content is unchanged.

    Returns ``{"changed": n, "unchanged": n, "added": n, "specs":
    [names]}`` — the server-side swap report.  Bound sessions drain on
    their old machines; only a rebind sees the new ones.
    """
    import asyncio

    from repro.service.client import MonitorClient

    if (text is None) == (scenario is None):
        raise ReproError(
            "update_from_text needs exactly one of text or scenario="
        )
    if text is not None:
        load(text)

    async def run() -> dict:
        client = MonitorClient(
            host, port, connect_retries=retries, proto=proto
        )
        await client.connect()
        try:
            fields = await client.update_document(
                text=text, scenario=scenario, force=force
            )
        finally:
            await client.close()
        return _update_summary(fields)

    return asyncio.run(run())


class Gateway:
    """Synchronous management facade over a running monitoring service.

    One ``Gateway`` owns a private asyncio loop on a daemon thread and a
    pool of :class:`~repro.service.client.MonitorClient` connections into
    the TCP service (plain single-process servers and ``--procs N``
    scale-out topologies alike — it only ever speaks the public client
    protocol).  Every method is a plain blocking call, safe to invoke
    from any thread — which is exactly what the per-request threads of
    the HTTP gateway (:mod:`repro.gateway`) need.

    Sessions are keyed by caller-chosen names: the first
    :meth:`send_events` for a key opens a TCP session (durable when
    requested and the server has a data directory) and later calls
    reuse it, so HTTP's stateless requests still map onto the service's
    per-connection sessions.  Typed errors
    (:class:`~repro.core.errors.UnknownSpecificationError`,
    :class:`~repro.core.errors.UnknownSessionError`,
    :class:`~repro.core.errors.SessionStateError`) carry enough intent
    for the HTTP layer to map them to 4xx statuses.

    ``metrics_targets`` aims :meth:`metrics_text` at per-worker direct
    ports (a ``--procs N`` topology's ``worker_ports``) — pass a list of
    ``(host, port)`` pairs or a callable returning one (re-evaluated per
    scrape, so worker respawns are picked up).  Counters and histograms
    merge across workers; gauges are labeled by worker
    (:func:`repro.obs.merge.merge_prometheus`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7471,
        *,
        proto: int = 2,
        connect_retries: int = 5,
        timeout: float = 60.0,
        metrics_targets=None,
    ) -> None:
        self.host = host
        self.port = port
        self._proto = proto
        self._retries = connect_retries
        self._timeout = timeout
        self._metrics_targets = metrics_targets
        self._loop = None
        self._thread = None
        self._clients: dict[str, object] = {}
        self._locks: dict[str, object] = {}

    # -- lifecycle -------------------------------------------------------

    def open(self) -> "Gateway":
        """Start the loop thread and probe the backend (fail fast)."""
        if self._loop is not None:
            return self
        import asyncio
        import threading

        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=loop.run_forever, name="repro-gateway-loop", daemon=True
        )
        thread.start()
        self._loop, self._thread = loop, thread
        try:
            self.documents()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Close every session connection and stop the loop thread."""
        import asyncio

        loop, thread = self._loop, self._thread
        if loop is None:
            return

        async def shutdown() -> None:
            for client in list(self._clients.values()):
                try:
                    await client.close()
                except Exception:
                    pass
            self._clients.clear()
            self._locks.clear()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), loop).result(
                self._timeout
            )
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            self._loop = self._thread = None

    def __enter__(self) -> "Gateway":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------

    def _call(self, coro):
        import asyncio

        if self._loop is None:
            coro.close()
            raise ReproError(
                "gateway is not open (call open() or use it as a context manager)"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            self._timeout
        )

    def _new_client(self, *, session: str | None = None):
        from repro.service.client import MonitorClient

        return MonitorClient(
            self.host,
            self.port,
            connect_retries=self._retries,
            proto=self._proto,
            session=session,
        )

    async def _round(self, fn):
        """One throwaway control connection: connect, run, close."""
        client = self._new_client()
        await client.connect()
        try:
            return await fn(client)
        finally:
            await client.close()

    def _count(self, op: str) -> None:
        from repro.obs.registry import get_registry

        get_registry().counter(
            "repro_gateway_requests_total",
            (("op", op),),
            help="Gateway management operations, by op.",
        ).inc()

    def _lock(self, key: str):
        import asyncio

        # Only ever called from coroutines on the gateway loop, so the
        # check-and-insert cannot race.
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = asyncio.Lock()
        return lock

    # -- documents -------------------------------------------------------

    def documents(self) -> list[str]:
        """Specification names the service currently serves."""
        self._count("documents")

        async def names(client):
            return list(client.server_specs)

        return self._call(self._round(names))

    def update_from_text(
        self,
        text: str,
        *,
        force: bool = False,
        declares: str | None = None,
    ) -> dict:
        """Register/hot-swap an OUN document on the service (UPDATE).

        Validates locally first (typed parse/elaboration errors, no wire
        round-trip); with ``declares=NAME`` also requires the document to
        declare that specification — the HTTP gateway's
        ``PUT /v1/documents/{name}`` contract.  Returns the swap report
        of :func:`update_from_text`.
        """
        self._count("update")
        specs = load(text)
        if declares is not None and declares not in specs:
            names = ", ".join(sorted(specs)) or "none"
            raise SpecificationError(
                f"document does not declare specification {declares!r} "
                f"(declares: {names})"
            )

        async def update(client):
            return _update_summary(
                await client.update_document(text=text, force=force)
            )

        return self._call(self._round(update))

    # -- sessions --------------------------------------------------------

    def sessions(self) -> list[str]:
        """Keys of the sessions this gateway holds open, sorted."""
        self._count("sessions")
        return sorted(self._clients)

    def send_events(
        self,
        key: str,
        events,
        *,
        spec: str | None = None,
        durable: bool = False,
    ) -> dict:
        """Send event line(s) to session ``key``; return its status dict.

        ``events`` is one trace line or an iterable of them.  The first
        call for a key must name a ``spec`` and opens the session
        (``durable=True`` asks the server for a durable keyed session —
        honoured when it runs with a data directory, reported in the
        returned ``"durable"``/``"applied"`` fields).  Later calls may
        repeat the same spec but cannot switch it
        (:class:`~repro.core.errors.SessionStateError`).
        """
        self._count("events")
        lines = (
            [events] if isinstance(events, str) else [str(e) for e in events]
        )
        return self._call(self._ingest(key, lines, spec, durable))

    def session_status(self, key: str) -> dict:
        """STATUS of session ``key``: counters, verdict, violation."""
        self._count("status")
        return self._call(self._status_of(key))

    def end_session(self, key: str) -> dict:
        """Close session ``key``; returns its final status dict."""
        self._count("end")
        return self._call(self._end(key))

    async def _open_session(self, key: str, spec: str | None, durable: bool):
        if spec is None:
            known = ", ".join(sorted(self._clients)) or "none"
            raise UnknownSessionError(
                f"no open session {key!r} (open: {known}); "
                "name a spec to open one"
            )
        client = self._new_client(session=key if durable else None)
        await client.connect()
        try:
            if spec not in client.server_specs:
                have = ", ".join(client.server_specs) or "none"
                raise UnknownSpecificationError(
                    f"no specification named {spec!r} (have: {have})"
                )
            await client.use_spec(spec)
        except BaseException:
            await client.close()
            raise
        self._clients[key] = client
        return client

    async def _ingest(self, key, lines, spec, durable):
        async with self._lock(key):
            client = self._clients.get(key)
            if client is None:
                client = await self._open_session(key, spec, durable)
            elif spec is not None and spec != client.spec:
                raise SessionStateError(
                    f"session {key!r} is bound to {client.spec!r}; "
                    f"end it (or pick a new key) to check {spec!r}"
                )
            for line in lines:
                await client.send_event(line)
            return self._status_payload(key, client, await client.status())

    async def _status_of(self, key):
        async with self._lock(key):
            client = self._clients.get(key)
            if client is None:
                raise UnknownSessionError(f"no open session {key!r}")
            return self._status_payload(key, client, await client.status())

    async def _end(self, key):
        async with self._lock(key):
            client = self._clients.pop(key, None)
            if client is None:
                raise UnknownSessionError(f"no open session {key!r}")
            payload = self._status_payload(key, client, await client.status())
            await client.close()
        self._locks.pop(key, None)
        payload["closed"] = True
        return payload

    @staticmethod
    def _status_payload(key, client, status) -> dict:
        violation = None
        if status.violation_index is not None:
            violation = {
                "index": status.violation_index,
                "event": status.violation_event,
            }
        return {
            "session": key,
            "spec": status.spec,
            "ok": status.ok,
            "events": status.events,
            "skipped": status.skipped,
            "errors": status.errors,
            "violation": violation,
            "applied": status.applied,
            "durable": client.durable,
        }

    # -- metrics / health ------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus text across every metrics target (fan-in + merge)."""
        self._count("metrics")
        return self._call(self._metrics())

    def health(self) -> dict:
        """Liveness probe: reaches the backend and reports the surface."""
        specs = self.documents()
        return {
            "status": "ok",
            "version": API_VERSION,
            "specs": specs,
            "sessions": len(self._clients),
        }

    def _targets(self) -> list[tuple[str, int]]:
        targets = self._metrics_targets
        if callable(targets):
            targets = targets()
        if not targets:
            return [(self.host, self.port)]
        return [(host, port) for host, port in targets]

    async def _metrics(self) -> str:
        import asyncio

        async def fetch(host: str, port: int) -> str:
            from repro.service.client import MonitorClient

            client = MonitorClient(
                host, port, connect_retries=self._retries
            )
            await client.connect()
            try:
                return await client.metrics()
            finally:
                await client.close()

        targets = self._targets()
        texts = await asyncio.gather(*(fetch(h, p) for h, p in targets))
        if len(texts) == 1:
            merged = texts[0]
        else:
            from repro.obs.merge import merge_prometheus

            merged = merge_prometheus(list(enumerate(texts)))
        # The gateway's own request counters live in *this* process, not
        # the scraped backends; append them unless the backend shares our
        # registry (in-process test servers) and already reported them.
        if "# TYPE repro_gateway_" not in merged:
            local = _gateway_families(metrics_text())
            if local:
                merged += local
        return merged


def _gateway_families(text: str) -> str:
    """Just the ``repro_gateway_*`` families of an exposition dump."""
    lines = []
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            name = parts[2] if len(parts) > 2 else ""
        else:
            name = line.split("{", 1)[0].split(" ", 1)[0]
        if name.startswith("repro_gateway_"):
            lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""
