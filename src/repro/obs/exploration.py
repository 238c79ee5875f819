"""Exploration statistics: how much work a DFA compilation actually did.

Tree rewrites that are bijections on product states (dropping a
``TrueMachine`` conjunct, fusing two renames) do not shrink the number of
*distinct* DFA states, so "states in the result" cannot show their
effect.  What does change is the work per explored state: how many
component-machine ``step`` calls the exploration performs and how many
hidden candidate events the ε-closure grinds through.  This module
collects those counts, plus the explored-state totals, through an
ambient :class:`ExplorationStats` — installed with
:func:`collect_exploration`, read by ``benchmarks/bench_passes.py`` to
compare raw against normalized compilation.

No stats object installed (the default) means zero overhead beyond one
ContextVar read per exploration.  When a collection block closes, its
totals are also flushed into the process-wide
:class:`~repro.obs.registry.MetricsRegistry` (``repro_exploration_*``
counters), so exploration work shows up in the same Prometheus scrape as
everything else.

Historically ``repro.automata.stats``, which has been removed.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

from repro.obs.registry import get_registry

__all__ = ["ExplorationStats", "collect_exploration", "active_exploration_stats"]


@dataclass
class ExplorationStats:
    """Counters accumulated across every exploration while installed.

    ``letters_encoded`` counts boundary work — structured letters hashed
    into dense ids — while ``dense_steps`` counts integer-indexed
    transitions taken over the dense core (stepping, product edges).  The
    dense refactor's whole point is that the second number dwarfs the
    first: each letter is encoded once and then stepped many times
    (``benchmarks/bench_dense.py`` reports the ratio).
    """

    dfa_states: int = 0
    machine_steps: int = 0
    hidden_events: int = 0
    letters_encoded: int = 0
    dense_steps: int = 0

    def snapshot(self) -> dict:
        return {
            "dfa_states": self.dfa_states,
            "machine_steps": self.machine_steps,
            "hidden_events": self.hidden_events,
            "letters_encoded": self.letters_encoded,
            "dense_steps": self.dense_steps,
        }


_ACTIVE: contextvars.ContextVar[ExplorationStats | None] = contextvars.ContextVar(
    "repro_exploration_stats", default=None
)


def active_exploration_stats() -> ExplorationStats | None:
    return _ACTIVE.get()


@contextlib.contextmanager
def collect_exploration(stats: ExplorationStats | None = None):
    """Install a stats collector for the block; yields the collector."""
    if stats is None:
        stats = ExplorationStats()
    token = _ACTIVE.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)
        registry = get_registry()
        for name, value in stats.snapshot().items():
            if value:
                registry.counter(
                    f"repro_exploration_{name}_total",
                    help="DFA exploration work observed under collect_exploration",
                ).inc(value)
