"""An interactive GSQL shell: ``python -m repro.shell``.

A minimal REPL over one in-memory :class:`TigerVectorDB`.  Statements end
with ``;`` (multi-line input is accumulated until then).  Meta-commands:

=============  =============================================================
``\\h``         help
``\\schema``    list vertex/edge types and embedding attributes
``\\explain``   show the physical plan of the next SELECT instead of running
``\\seed N D``  load N random D-dim vectors into a demo Item vertex
``\\serve``     drive the seeded Item data through a concurrent QueryServer
``\\q``         quit
=============  =============================================================

Example session::

    gsql> CREATE VERTEX Doc (id INT PRIMARY KEY, title STRING);
    gsql> ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb
          (DIMENSION = 8, METRIC = L2);
    gsql> \\seed 100 8
    gsql> SELECT s FROM (s:Item) ORDER BY VECTOR_DIST(s.emb, [0,0,0,0,0,0,0,0]) LIMIT 3;
"""

from __future__ import annotations

import sys

import numpy as np

from .core.database import TigerVectorDB
from .errors import ReproError
from .graph.vertex_set import RankedVertexSet, VertexSet
from .telemetry import Telemetry, format_snapshot, use_telemetry

__all__ = ["GSQLShell", "main"]

_HELP = """\
GSQL shell — statements end with ';'. Meta-commands:
  \\h            this help
  \\schema       show the catalog
  \\explain ...  print the plan of one SELECT block (no execution)
  \\seed N D     create an Item vertex type with N random D-dim embeddings
  \\serve [Q C [S]] run Q queries at concurrency C through a QueryServer demo
                (S > 1 = route through an elastic tier of S sharded servers
                 with a live mid-run rebalance, printing the ownership map,
                 rebalance count, and per-replica cache hit rates)
  \\stats        print the live telemetry metrics snapshot
  \\q            quit
Query parameters are not supported interactively — inline literals instead.
"""


class GSQLShell:
    """REPL state: one database plus an input buffer."""

    def __init__(self, db: TigerVectorDB | None = None, out=None):
        self.db = db or TigerVectorDB(segment_size=1024)
        self.out = out or sys.stdout
        self._buffer: list[str] = []
        #: Shell-owned telemetry, activated only around statement execution
        #: (scoped via use_telemetry, so embedding a shell in tests never
        #: leaks a live instance into the process-global slot).
        self.telemetry = Telemetry()

    # ------------------------------------------------------------- plumbing
    def _print(self, *parts) -> None:
        print(*parts, file=self.out)

    def _show_value(self, value) -> None:
        if isinstance(value, RankedVertexSet):
            for (vtype, vid), dist in value.ranking:
                self._print(f"  {vtype}({self.db.pk_for(vtype, vid)})  dist={dist:.4f}")
        elif isinstance(value, VertexSet):
            members = sorted(
                (vtype, self.db.pk_for(vtype, vid)) for vtype, vid in value
            )
            for vtype, pk in members[:50]:
                self._print(f"  {vtype}({pk})")
            if len(members) > 50:
                self._print(f"  ... {len(members) - 50} more")
        elif isinstance(value, list):
            for row in value[:50]:
                self._print(f"  {row}")
        elif value is not None:
            self._print(f"  {value}")

    # --------------------------------------------------------------- logic
    def handle_meta(self, line: str) -> bool:
        """Execute a meta-command; returns False when the shell should exit."""
        cmd, _, rest = line.strip().partition(" ")
        if cmd in ("\\q", "\\quit", "exit", "quit"):
            return False
        if cmd in ("\\h", "\\help"):
            self._print(_HELP)
        elif cmd == "\\schema":
            for name, vtype in self.db.schema.vertex_types.items():
                attrs = ", ".join(
                    f"{a.name} {a.attr_type.value}" + (" PK" if a.primary_key else "")
                    for a in vtype.attributes.values()
                )
                self._print(f"  VERTEX {name} ({attrs})")
                for emb in vtype.embeddings.values():
                    self._print(
                        f"    EMBEDDING {emb.name}: dim={emb.dimension} "
                        f"model={emb.model} index={emb.index.value} "
                        f"metric={emb.metric.value}"
                    )
            for name, etype in self.db.schema.edge_types.items():
                arrow = "->" if etype.directed else "--"
                self._print(f"  EDGE {name}: {etype.from_type} {arrow} {etype.to_type}")
        elif cmd == "\\explain":
            try:
                self._print(self.db.gsql.explain(rest))
            except ReproError as exc:
                self._print(f"error: {exc}")
        elif cmd == "\\seed":
            try:
                parts = rest.split()
                n, dim = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                self._print("usage: \\seed N DIM")
                return True
            self._seed_demo(n, dim)
        elif cmd == "\\serve":
            parts = rest.split()
            try:
                queries = int(parts[0]) if parts else 200
                concurrency = int(parts[1]) if len(parts) > 1 else 8
                servers = int(parts[2]) if len(parts) > 2 else 1
            except ValueError:
                self._print("usage: \\serve [QUERIES [CONCURRENCY [SERVERS]]]")
                return True
            try:
                self._serve_demo(queries, concurrency, servers)
            except ReproError as exc:
                self._print(f"error: {exc}")
        elif cmd == "\\stats":
            self._print(format_snapshot(self.telemetry.registry.snapshot()))
        else:
            self._print(f"unknown meta-command {cmd!r} (\\h for help)")
        return True

    def _seed_demo(self, n: int, dim: int) -> None:
        if not self.db.schema.has_vertex_type("Item"):
            self.db.run_gsql(
                "CREATE VERTEX Item (id INT PRIMARY KEY, label STRING);"
                f"ALTER VERTEX Item ADD EMBEDDING ATTRIBUTE emb "
                f"(DIMENSION = {dim}, MODEL = demo, INDEX = HNSW, "
                f"DATATYPE = FLOAT, METRIC = L2);"
            )
        rng = np.random.default_rng(0)
        with self.db.begin() as txn:
            for i in range(n):
                txn.upsert_vertex("Item", i, {"label": f"item{i}"})
                txn.set_embedding("Item", i, "emb", rng.standard_normal(dim))
        self.db.vacuum()
        self._print(f"seeded {n} Item vertices with {dim}-dim embeddings")

    def _first_embedding(self) -> tuple[str, int] | None:
        """``("Type.attr", dim)`` of the first embedding attribute — what
        the ``\\serve`` demos query — or ``None`` (said) when there is none."""
        for name, vtype in self.db.schema.vertex_types.items():
            for emb in vtype.embeddings.values():
                return f"{name}.{emb.name}", emb.dimension
        self._print("no embedding attributes — try \\seed first")
        return None

    def _serve_demo(self, queries: int, concurrency: int, servers: int) -> None:
        """Drive the first embedding attribute through a QueryServer, or an
        elastic tier of ``servers`` (DESIGN §13), from ``concurrency``
        client threads."""
        from .serve import ServeConfig
        from .serve.cli import serve_demo

        target = self._first_embedding()
        if target is None:
            return
        attr, dim = target
        if queries < 1 or concurrency < 1:
            self._print("usage: \\serve [QUERIES [CONCURRENCY [SERVERS]]]")
            return
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((queries, dim)).astype(np.float32)
        serve_demo(
            self.db, attr, vectors, k=5, concurrency=concurrency, servers=servers,
            config=ServeConfig(workers=min(4, concurrency)),
            telemetry=self.telemetry, emit=self._print,
        )

    def handle_statement(self, text: str) -> None:
        try:
            with use_telemetry(self.telemetry):
                result = self.db.run_gsql(text)
        except ReproError as exc:
            self._print(f"error: {exc}")
            return
        for printed in result.prints:
            if isinstance(printed, dict) and "vertices" in printed:
                self._print(f"{printed.get('name', 'result')}:")
                for entry in printed["vertices"]:
                    self._print(f"  {entry}")
            else:
                self._print(printed)
        if result.result is not None and not result.prints:
            self._show_value(result.result)
        elif result.result is None and not result.prints:
            self._print("ok")
        if result.elapsed_seconds:
            self._print(f"({result.elapsed_seconds * 1e3:.2f} ms)")

    def feed(self, line: str) -> bool:
        """Process one input line; returns False when the shell should exit."""
        stripped = line.strip()
        if not self._buffer and (stripped.startswith("\\") or stripped in ("exit", "quit")):
            return self.handle_meta(stripped)
        if not stripped:
            return True
        self._buffer.append(line)
        if stripped.endswith(";") or stripped.endswith("}"):
            text = "\n".join(self._buffer)
            self._buffer = []
            self.handle_statement(text)
        return True

    # ----------------------------------------------------------------- run
    def run(self, input_stream=None) -> None:
        self._print("TigerVector GSQL shell — \\h for help, \\q to quit")
        stream = input_stream or sys.stdin
        interactive = stream is sys.stdin and sys.stdin.isatty()
        while True:
            if interactive:
                prompt = "  ... " if self._buffer else "gsql> "
                try:
                    line = input(prompt)
                except (EOFError, KeyboardInterrupt):
                    break
            else:
                line = stream.readline()
                if not line:
                    break
            if not self.feed(line):
                break
        self._print("bye")


def main() -> None:
    GSQLShell().run()


if __name__ == "__main__":
    main()
