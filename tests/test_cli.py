"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main

DOC = """
object o, c
sort Objects = Obj \\ { o }
specification Read {
  objects o
  method R(Data)
  alphabet { <x, o, R(_)> where x : Objects; }
  traces true
}
specification Read2 {
  objects o
  method OR, CR, R(Data)
  alphabet {
    <x, o, OR>   where x : Objects;
    <x, o, CR>   where x : Objects;
    <x, o, R(_)> where x : Objects;
  }
  traces forall x : Objects . prs "[<x,o,OR> <x,o,R(_)>* <x,o,CR>]*"
}
"""


@pytest.fixture()
def doc_file(tmp_path):
    p = tmp_path / "rw.oun"
    p.write_text(DOC)
    return p


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParse:
    def test_lists_specs(self, doc_file):
        code, text = run("parse", str(doc_file))
        assert code == 0
        assert "Read:" in text and "Read2:" in text
        assert "OR" in text

    def test_missing_file(self, tmp_path):
        code, text = run("parse", str(tmp_path / "nope.oun"))
        assert code == 2 and "error:" in text


class TestCheck:
    def test_refines_positive(self, doc_file):
        code, text = run("check", str(doc_file), "--refines", "Read2", "Read")
        assert code == 0 and "proved" in text

    def test_refines_negative(self, doc_file):
        code, text = run("check", str(doc_file), "--refines", "Read", "Read2")
        assert code == 1 and "static-failed" in text

    def test_equal(self, doc_file):
        code, text = run("check", str(doc_file), "--equal", "Read", "Read")
        assert code == 0 and "proved" in text

    def test_unknown_spec_name(self, doc_file):
        code, text = run("check", str(doc_file), "--refines", "Ghost", "Read")
        assert code == 2 and "no specification named" in text

    def test_bounded_strategy(self, doc_file):
        code, text = run(
            "check", str(doc_file), "--refines", "Read2", "Read",
            "--strategy", "bounded", "--depth", "3",
        )
        assert code == 0 and "bounded-ok" in text

    def test_compose(self, doc_file):
        code, text = run("check", str(doc_file), "--compose", "Read", "Read2")
        assert code == 0 and "composable" in text


class TestDeadlock:
    def test_single_spec_deadlock_free(self, doc_file):
        code, text = run("deadlock", str(doc_file), "Read")
        assert code == 0 and "deadlock-free" in text


class TestMatrix:
    def test_matrix_table(self, doc_file):
        code, text = run("matrix", str(doc_file), "--env-objects", "1")
        assert code == 0
        assert "| ⊑ |" in text and "Hasse edges" in text
        assert "('Read2', 'Read')" in text

    def test_matrix_subset(self, doc_file):
        code, text = run("matrix", str(doc_file), "Read", "Read2")
        assert code == 0

    def test_matrix_needs_two(self, doc_file):
        code, text = run("matrix", str(doc_file), "Read")
        assert code == 2 and "at least two" in text


class TestFormat:
    def test_format_round_trip(self, doc_file):
        code, text = run("parse", str(doc_file), "--format")
        assert code == 0
        from repro.oun import parse_document

        assert parse_document(text) == parse_document(DOC)


class TestMonitor:
    def test_satisfying_trace(self, doc_file, tmp_path):
        trace_path = tmp_path / "good.trace"
        trace_path.write_text(
            "x -> o : OR\nx -> o : R(Data:d1)\nx -> o : CR\n"
        )
        code, text = run("monitor", str(doc_file), "Read2", str(trace_path))
        assert code == 0 and "satisfies" in text

    def test_violating_trace(self, doc_file, tmp_path):
        trace_path = tmp_path / "bad.trace"
        trace_path.write_text("x -> o : R(Data:d1)\n")
        code, text = run("monitor", str(doc_file), "Read2", str(trace_path))
        assert code == 1 and "violated" in text

    def test_malformed_trace(self, doc_file, tmp_path):
        trace_path = tmp_path / "broken.trace"
        trace_path.write_text("gibberish\n")
        code, text = run("monitor", str(doc_file), "Read2", str(trace_path))
        assert code == 2 and "error:" in text


class TestMonitorStdin:
    def _stream(self, monkeypatch, doc_file, text):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO(text))
        return run("monitor", str(doc_file), "Read2", "-")

    def test_clean_stream(self, monkeypatch, doc_file):
        code, text = self._stream(
            monkeypatch, doc_file, "x -> o : OR\nx -> o : R(Data:d1)\nx -> o : CR\n"
        )
        assert code == 0 and "stream of 3 events satisfies" in text

    def test_first_violation_reported_with_line_number(self, monkeypatch, doc_file):
        stream = (
            "# recorded\n"
            "x -> o : OR\n"
            "\n"
            "y -> o : R(Data:d1)\n"  # line 4: R without OR by y
            "x -> o : CR\n"
        )
        code, text = self._stream(monkeypatch, doc_file, stream)
        assert code == 1
        assert "line 4:" in text and "violated by event #1" in text


class TestService:
    def test_serve_help(self):
        with pytest.raises(SystemExit) as excinfo:
            run("serve", "--help")
        assert excinfo.value.code == 0

    def test_serve_has_no_shards_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("serve", "examples/readers_writers.oun", "--shards", "2")
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_rejects_spec_free_document(self, tmp_path):
        empty = tmp_path / "empty.oun"
        empty.write_text("object o\n")
        code, text = run("serve", str(empty))
        assert code == 2 and "no monitorable specifications" in text

    def test_send_against_unreachable_server(self, tmp_path):
        trace_path = tmp_path / "t.trace"
        trace_path.write_text("x -> o : OR\n")
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code, text = run(
            "send", str(trace_path), "--spec", "Read2",
            "--port", str(port), "--retries", "0",
        )
        assert code == 2 and "cannot reach" in text


class TestClaims:
    def test_claims_smoke(self):
        # env_objects=1 keeps the replay fast; agreement must still hold.
        code, text = run("claims", "--env-objects", "1")
        assert code == 0
        assert "all obligations agree" in text
        assert "| T16 |" in text


class TestEngineFlags:
    """--jobs / --cache-dir / --no-cache on the obligation-running commands."""

    def test_claims_parallel_agrees(self):
        code, text = run("claims", "--env-objects", "1", "--jobs", "2")
        assert code == 0
        assert "all obligations agree" in text
        assert "engine:" in text and "2 workers" in text

    def test_check_with_cache_cold_then_warm(self, doc_file, tmp_path):
        cache = str(tmp_path / "cache")
        code1, text1 = run(
            "check", str(doc_file), "--refines", "Read2", "Read",
            "--cache-dir", cache,
        )
        code2, text2 = run(
            "check", str(doc_file), "--refines", "Read2", "Read",
            "--cache-dir", cache,
        )
        assert code1 == 0 and code2 == 0
        assert "proved" in text1 and "proved" in text2
        assert "cache: 0 hits" in text1
        assert "0 misses" in text2 and "cache: 0 hits" not in text2

    def test_cache_env_var_and_no_cache(self, doc_file, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        code, text = run("check", str(doc_file), "--refines", "Read2", "Read")
        assert code == 0 and "cache:" in text
        code, text = run(
            "check", str(doc_file), "--refines", "Read2", "Read", "--no-cache"
        )
        assert code == 0 and "cache:" not in text

    def test_check_parallel_unknown_spec_still_exit_2(self, doc_file):
        code, text = run(
            "check", str(doc_file), "--refines", "Ghost", "Read", "--jobs", "2"
        )
        assert code == 2 and "no specification named" in text

    def test_check_parallel_negative_exit_1(self, doc_file):
        code, text = run(
            "check", str(doc_file), "--refines", "Read", "Read2", "--jobs", "2"
        )
        assert code == 1 and "static-failed" in text

    def test_verify_parallel_matches_inline(self, tmp_path, doc_file):
        doc = doc_file.read_text() + (
            "\nassert Read2 refines Read\nassert not Read refines Read2\n"
        )
        p = tmp_path / "asserts.oun"
        p.write_text(doc)
        code1, text1 = run("verify", str(p))
        code2, text2 = run("verify", str(p), "--jobs", "2")
        assert code1 == code2 == 0
        assert "2/2 assertions hold" in text1
        assert "2/2 assertions hold" in text2
        # identical per-assertion lines, modulo the engine summary line
        lines1 = [l for l in text1.splitlines() if l.startswith("assert")]
        lines2 = [l for l in text2.splitlines() if l.startswith("assert")]
        assert lines1 == lines2
