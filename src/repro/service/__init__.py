"""Online-monitoring service: soundness checking as a network service.

The paper's practical payoff is that prefix-closed (safety) trace sets
are monitorable online.  This package turns the in-process
:class:`~repro.runtime.monitor.SpecMonitor` into a server: many
concurrent TCP sessions, each an event stream checked against a
registered specification, its events stepped through one monitor per
session in arrival order (the projection ``h/α(Γ)``; composition
``Γ‖Δ`` is the offline checker's job).  Parallelism comes from worker
processes (:mod:`~repro.service.topology`).

Modules:

* :mod:`~repro.service.protocol` — the newline-delimited wire protocol;
* :mod:`~repro.service.registry` — compile specs once, share machines;
* :mod:`~repro.service.durability` — per-worker event log + snapshots;
* :mod:`~repro.service.topology` — multi-process serving (scale-out);
* :mod:`~repro.service.server`   — the asyncio TCP server;
* :mod:`~repro.service.client`   — retrying, backpressured client.
"""

from repro.obs.metrics import LatencyHistogram, ServiceMetrics
from repro.service.client import MonitorClient, ServiceUnavailable, backoff_delays
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Command,
    ProtocolError,
    Reply,
    SessionStatus,
    format_status,
    parse_command,
    parse_reply,
)
from repro.service.registry import CompiledSpec, SpecRegistry, UpdateReport
from repro.service.server import MonitorServer

__all__ = [
    "PROTOCOL_VERSION",
    "Command",
    "CompiledSpec",
    "LatencyHistogram",
    "MonitorClient",
    "MonitorServer",
    "ProtocolError",
    "Reply",
    "ServiceMetrics",
    "ServiceUnavailable",
    "SessionStatus",
    "SpecRegistry",
    "UpdateReport",
    "backoff_delays",
    "format_status",
    "parse_command",
    "parse_reply",
]
