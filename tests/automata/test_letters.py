"""LetterTable interning, encoding, and unknown-letter diagnostics."""

from __future__ import annotations

import pickle

import pytest

from repro.automata.dfa import DFA
from repro.automata.letters import LetterTable, interned_table_count
from repro.core.errors import AutomatonError
from repro.core.events import Event
from repro.core.values import ObjectId
from repro.obs import collect_exploration

o, p, q = ObjectId("o"), ObjectId("p"), ObjectId("q")

EVENTS = (
    Event(p, o, "read"),
    Event(q, o, "read"),
    Event(p, o, "write"),
)


def test_intern_shares_one_table_per_letter_tuple():
    a = LetterTable.intern(EVENTS)
    b = LetterTable.intern(tuple(EVENTS))
    assert a is b
    assert len(a) == 3
    assert list(a) == list(EVENTS)
    assert EVENTS[1] in a
    assert Event(q, o, "write") not in a
    assert interned_table_count() >= 1


def test_encode_decode_roundtrip_counts_in_stats():
    table = LetterTable.intern(EVENTS)
    word = (EVENTS[0], EVENTS[2], EVENTS[0])
    with collect_exploration() as stats:
        ids = table.encode(word)
    assert table.decode(ids) == word
    assert [table.letters[i] for i in ids] == list(word)
    assert stats.letters_encoded == 3


def test_duplicate_letters_rejected():
    with pytest.raises(AutomatonError, match="duplicate"):
        LetterTable((EVENTS[0], EVENTS[0]))


def test_unknown_letter_nearest_by_method():
    table = LetterTable.intern(EVENTS)
    stranger = Event(q, o, "write")
    with pytest.raises(AutomatonError) as exc:
        table.id_of(stranger)
    msg = str(exc.value)
    assert repr(stranger) in msg
    assert "nearest letters by method 'write'" in msg
    assert str(EVENTS[2]) in msg
    # And the same hint for bulk encoding.
    with pytest.raises(AutomatonError, match="nearest letters by method"):
        table.encode([EVENTS[0], stranger])


def test_unknown_letter_falls_back_to_string_distance():
    table = LetterTable.intern(("alpha", "beta"))
    with pytest.raises(AutomatonError, match="nearest letters: "):
        table.id_of("alphq")


def test_table_pickle_reinterns():
    table = LetterTable.intern(EVENTS)
    clone = pickle.loads(pickle.dumps(table))
    assert clone == table
    assert clone.letters is table.letters  # shares the interned storage


def _dfa():
    # read* with at most one write: 0 --write--> 1, writes from 1 go to
    # the (non-accepting) sink 2.
    rows = (
        {EVENTS[0]: 0, EVENTS[1]: 0, EVENTS[2]: 1},
        {EVENTS[0]: 1, EVENTS[1]: 1, EVENTS[2]: 2},
        {EVENTS[0]: 2, EVENTS[1]: 2, EVENTS[2]: 2},
    )
    return DFA(EVENTS, rows, 0, frozenset({0, 1}))


def test_dfa_step_unknown_letter_names_letter_and_neighbours():
    dfa = _dfa()
    stranger = Event(q, o, "write")
    with pytest.raises(AutomatonError) as exc:
        dfa.step(0, stranger)
    msg = str(exc.value)
    assert repr(stranger) in msg
    assert "nearest letters by method 'write'" in msg
    assert str(EVENTS[2]) in msg


def test_dfa_pickles_as_dense_form():
    dfa = _dfa()
    clone = pickle.loads(pickle.dumps(dfa))
    assert clone == dfa
    assert clone.table is dfa.table  # re-interned on load
    assert clone.run((EVENTS[0], EVENTS[2])) == 1
    assert clone.accepts((EVENTS[2], EVENTS[2])) is False


def test_run_ids_matches_event_stepping():
    dfa = _dfa()
    word = (EVENTS[0], EVENTS[2], EVENTS[1])
    ids = dfa.table.encode(word)
    with collect_exploration() as stats:
        assert dfa.run_ids(ids) == dfa.run(word)
    assert stats.dense_steps >= len(word)
