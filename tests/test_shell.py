"""Tests for the interactive GSQL shell."""

import io

import pytest

from repro.errors import ServeError
from repro.shell import GSQLShell


@pytest.fixture
def shell():
    out = io.StringIO()
    sh = GSQLShell(out=out)
    yield sh, out
    sh.db.close()


def feed_all(sh, lines):
    for line in lines:
        if not sh.feed(line):
            return False
    return True


class TestMetaCommands:
    def test_help(self, shell):
        sh, out = shell
        sh.feed("\\h")
        assert "meta-commands" in out.getvalue().lower()

    def test_quit(self, shell):
        sh, _ = shell
        assert sh.feed("\\q") is False
        assert sh.feed("exit") is False

    def test_unknown_meta(self, shell):
        sh, out = shell
        sh.feed("\\bogus")
        assert "unknown meta-command" in out.getvalue()

    def test_seed_and_schema(self, shell):
        sh, out = shell
        sh.feed("\\seed 20 4")
        sh.feed("\\schema")
        text = out.getvalue()
        assert "seeded 20 Item vertices" in text
        assert "EMBEDDING emb: dim=4" in text

    def test_seed_usage_error(self, shell):
        sh, out = shell
        sh.feed("\\seed nope")
        assert "usage" in out.getvalue()

    @pytest.mark.parametrize(
        "command, banner",
        [
            ("\\serve 20 2", "concurrency 2)"),
            ("\\serve 20 2 2", "2 servers, concurrency 2)"),
        ],
    )
    def test_serve_demo(self, shell, command, banner):
        sh, out = shell
        sh.feed("\\seed 200 8")
        sh.feed(command)
        text = out.getvalue()
        assert "served 20 queries on Item.emb" in text
        assert banner in text

    @pytest.mark.parametrize(
        "command, door",
        [
            ("\\serve 20 2", "repro.serve.QueryServer"),
            ("\\serve 20 2 2", "repro.elastic.ElasticTier"),
        ],
        ids=["server", "tier"],
    )
    def test_failing_serve_reports_the_error(self, shell, monkeypatch, command, door):
        """A search that raises is an error, not a query served."""

        def refuse(*_args, **_kwargs):
            raise ServeError("search refused")

        sh, out = shell
        sh.feed("\\seed 200 8")
        monkeypatch.setattr(f"{door}.search", refuse)
        assert sh.feed(command) is True
        text = out.getvalue()
        assert "error: search refused" in text
        assert "served" not in text


@pytest.mark.parametrize("extra", [[], ["--servers", "2"]])
def test_serve_cli_demo(capsys, extra):
    from repro.serve.cli import main

    argv = ["--vectors", "200", "--dim", "8", "--segment-size", "64",
            "--queries", "20", "--concurrency", "2", "--workers", "2"]
    assert main(argv + extra) == 0
    text = capsys.readouterr().out
    assert "served 20 queries" in text


class TestStatements:
    def test_ddl_then_query(self, shell):
        sh, out = shell
        feed_all(sh, [
            "CREATE VERTEX Doc (id INT PRIMARY KEY, title STRING);",
            "\\seed 30 4",
            "SELECT s FROM (s:Item) ORDER BY VECTOR_DIST(s.emb, [0,0,0,0]) LIMIT 2;",
        ])
        text = out.getvalue()
        assert "Item(" in text
        assert "dist=" in text

    def test_multiline_statement(self, shell):
        sh, out = shell
        feed_all(sh, [
            "CREATE VERTEX Doc (",
            "  id INT PRIMARY KEY,",
            "  title STRING",
            ");",
            "\\schema",
        ])
        assert "VERTEX Doc" in out.getvalue()

    def test_error_reported_not_raised(self, shell):
        sh, out = shell
        sh.feed("SELECT x FROM;")
        assert "error:" in out.getvalue()

    def test_explain(self, shell):
        sh, out = shell
        sh.feed("\\seed 10 4")
        sh.feed(
            "\\explain SELECT s FROM (s:Item) "
            "ORDER BY VECTOR_DIST(s.emb, [0,0,0,0]) LIMIT 2;"
        )
        assert "EmbeddingAction[Top 2" in out.getvalue()

    def test_run_with_stream(self):
        out = io.StringIO()
        sh = GSQLShell(out=out)
        stream = io.StringIO("\\seed 5 4\n\\q\n")
        sh.run(input_stream=stream)
        text = out.getvalue()
        assert "seeded 5" in text
        assert "bye" in text
        sh.db.close()
