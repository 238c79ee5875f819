"""Deprecated surfaces that still warn: the ``DFA.transitions`` dict shim."""

import warnings

import repro.automata.dfa as dfa_mod
from repro.automata.dfa import DFA


class TestDfaTransitionsShim:
    def test_warns_once_then_memoises(self, monkeypatch):
        monkeypatch.setattr(dfa_mod, "_WARNED_TRANSITIONS", False)
        d = DFA.full_language(["a", "b"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = d.transitions
            again = d.transitions
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "step" in str(deprecations[0].message)
        assert rows is again  # materialised once
        assert rows == ({"a": 0, "b": 0},)
