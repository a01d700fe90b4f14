"""GSQL session: the user-facing entry point.

``session.run(text, **params)`` compiles and executes GSQL source — DDL,
bare SELECT blocks, ``CREATE QUERY`` definitions, loading jobs — and returns
a :class:`QueryResult`.  Installed queries persist in the session and can be
invoked with ``session.run_query(name, **params)``.

``session.explain(text)`` returns the physical plan in the paper's notation
without executing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import GSQLSemanticError, LoadingError
from ..telemetry import get_telemetry
from ..types import AttrType, DataType, IndexType, Metric
from . import ast_nodes as ast
from .executor import ExecutionContext, eval_expr, execute_procedure, execute_select
from .parser import parse
from .planner import build_plan
from .semantic import analyze_select

__all__ = ["GSQLSession", "QueryResult"]

_ATTR_TYPES = {
    "INT": AttrType.INT,
    "UINT": AttrType.UINT,
    "FLOAT": AttrType.FLOAT,
    "DOUBLE": AttrType.DOUBLE,
    "BOOL": AttrType.BOOL,
    "STRING": AttrType.STRING,
    "DATETIME": AttrType.DATETIME,
    "LIST<FLOAT>": AttrType.LIST_FLOAT,
    "LIST<INT>": AttrType.LIST_INT,
}

_COERCERS = {
    AttrType.INT: int,
    AttrType.UINT: int,
    AttrType.FLOAT: float,
    AttrType.DOUBLE: float,
    AttrType.BOOL: lambda v: str(v).strip().lower() in ("1", "true", "t", "yes"),
    AttrType.STRING: str,
    AttrType.DATETIME: int,
}


@dataclass
class QueryResult:
    """Everything one ``run()`` produced."""

    prints: list[Any] = field(default_factory=list)
    result: Any = None  # value of the last executed block / statement
    sets: dict[str, Any] = field(default_factory=dict)  # vertex-set variables
    accumulators: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Wall time of the whole run() measured from its telemetry span; 0.0
    #: when telemetry is disabled.
    elapsed_seconds: float = 0.0


class GSQLSession:
    """Stateful GSQL front end over one :class:`TigerVectorDB`.

    Thread-safety: concurrent :meth:`run` / :meth:`run_query` calls are
    supported for *query execution* — every per-run value lives in the
    :class:`QueryResult` and :class:`ExecutionContext` created inside the
    call, and each statement pins its own MVCC snapshot.  Session state
    (``installed_queries``, ``loading_jobs``, ``default_ef``) is read
    per-call and mutated only by whole-reference assignments, so readers
    never observe a half-built entry; concurrent DDL/:meth:`install` of
    the *same* name is last-writer-wins, not merged.  The serving layer
    (``repro.serve``) relies on this: its workers share one session and
    gate writes per tenant rather than serializing execution.
    """

    def __init__(self, db):
        self.db = db
        self.installed_queries: dict[str, ast.CreateQuery] = {}
        self.loading_jobs: dict[str, ast.CreateLoadingJob] = {}
        #: Default HNSW ef for declarative ORDER BY VECTOR_DIST queries (the
        #: syntax has no ef slot; VectorSearch() takes it as an option).
        self.default_ef: int | None = None

    # ------------------------------------------------------------ frontends
    def run(self, text: str, readonly: bool = False, **params) -> QueryResult:
        """Compile and execute GSQL source.

        ``readonly=True`` (the serving layer's mode for tenants without
        write access) rejects everything except SELECT blocks with a
        semantic error before any statement executes.
        """
        tel = get_telemetry()
        result = QueryResult()
        with tel.span("gsql.query", record="gsql.query_seconds") as qspan:
            with tel.span("gsql.parse", record="gsql.parse_seconds"):
                nodes = parse(text)
            if readonly:
                for node in nodes:
                    if not isinstance(node, ast.SelectBlock):
                        raise GSQLSemanticError(
                            f"{type(node).__name__} is not allowed in a "
                            f"read-only session"
                        )
            with tel.span("gsql.execute", record="gsql.execute_seconds"):
                for node in nodes:
                    self._execute_node(node, result, params)
        if tel.enabled:
            tel.inc("gsql.queries")
            result.elapsed_seconds = qspan.duration_seconds
        return result

    def install(self, text: str) -> list[str]:
        """Parse and register CREATE QUERY / loading-job definitions."""
        installed = []
        for node in parse(text):
            if isinstance(node, ast.CreateQuery):
                self.installed_queries[node.name] = node
                installed.append(node.name)
            elif isinstance(node, ast.CreateLoadingJob):
                self.loading_jobs[node.name] = node
                installed.append(node.name)
            else:
                raise GSQLSemanticError(
                    "install() accepts CREATE QUERY / CREATE LOADING JOB only"
                )
        return installed

    def run_query(self, name: str, **params) -> QueryResult:
        proc = self.installed_queries.get(name)
        if proc is None:
            raise GSQLSemanticError(f"query '{name}' is not installed")
        tel = get_telemetry()
        result = QueryResult()
        with tel.span(
            "gsql.query", record="gsql.query_seconds", procedure=name
        ) as qspan:
            with tel.span("gsql.execute", record="gsql.execute_seconds"):
                self._run_procedure(proc, result, params)
        if tel.enabled:
            tel.inc("gsql.queries")
            result.elapsed_seconds = qspan.duration_seconds
        return result

    def explain(self, text: str, **params) -> str:
        """Physical plan (paper notation) for a single SELECT block."""
        nodes = parse(text)
        blocks = [n for n in nodes if isinstance(n, ast.SelectBlock)]
        if len(blocks) != 1:
            raise GSQLSemanticError("explain() expects exactly one SELECT block")
        info = analyze_select(blocks[0], self.db.schema, known_vars=set(params))
        return build_plan(info).explain()

    # ------------------------------------------------------------- dispatch
    def _execute_node(self, node, result: QueryResult, params: dict) -> None:
        if isinstance(node, ast.CreateVertex):
            self._ddl_create_vertex(node)
        elif isinstance(node, ast.CreateEdge):
            self.db.schema.create_edge_type(
                node.name, node.from_type, node.to_type, node.directed,
                [self._make_attr(a) for a in node.attributes],
            )
        elif isinstance(node, ast.CreateEmbeddingSpace):
            options = self._embedding_options(node.options)
            self.db.schema.create_embedding_space(node.name, **options)
        elif isinstance(node, ast.AddEmbeddingAttr):
            if node.space is not None:
                self.db.schema.add_embedding_attribute(
                    node.vertex_type, node.attr_name, space=node.space
                )
            else:
                options = self._embedding_options(node.options)
                self.db.schema.add_embedding_attribute(
                    node.vertex_type, node.attr_name, **options
                )
        elif isinstance(node, ast.CreateLoadingJob):
            self.loading_jobs[node.name] = node
        elif isinstance(node, ast.RunLoadingJob):
            stats = self._run_loading_job(node)
            result.result = stats
            result.prints.append(stats)
        elif isinstance(node, ast.CreateQuery):
            self.installed_queries[node.name] = node
        elif isinstance(node, ast.InsertVertex):
            result.result = self._insert_vertex(node, params)
        elif isinstance(node, ast.InsertEdge):
            result.result = self._insert_edge(node, params)
        elif isinstance(node, ast.DeleteVertex):
            result.result = self._delete_vertices(node, params)
        elif isinstance(node, ast.SelectBlock):
            with self.db.snapshot() as snapshot:
                ctx = ExecutionContext(
                    db=self.db, snapshot=snapshot, vars=dict(params),
                    default_ef=self.default_ef,
                )
                value = execute_select(node, ctx)
                result.result = value
                result.metrics.update(ctx.metrics)
                result.prints.extend(ctx.prints)
        else:
            raise GSQLSemanticError(f"cannot execute {type(node).__name__}")

    def _run_procedure(self, proc: ast.CreateQuery, result: QueryResult, params: dict) -> None:
        with self.db.snapshot() as snapshot:
            ctx = ExecutionContext(
                db=self.db, snapshot=snapshot, default_ef=self.default_ef
            )
            execute_procedure(proc, ctx, params)
            result.prints.extend(ctx.prints)
            result.metrics.update(ctx.metrics)
            result.sets = {
                name: value for name, value in ctx.vars.items()
                if name not in params
            }
            result.accumulators = {
                name: accum.value for name, accum in ctx.global_accums.items()
            }

    # ------------------------------------------------------------------ DML
    def _eval_literal(self, expr: ast.Expr, params: dict):
        ctx = ExecutionContext(db=self.db, snapshot=None, vars=dict(params))
        return eval_expr(expr, ctx)

    def _insert_vertex(self, node: ast.InsertVertex, params: dict) -> int:
        """Positional INSERT: ordinary attributes in declaration order, then
        embedding attributes (as list literals) in declaration order."""
        vtype = self.db.schema.vertex_type(node.vertex_type)
        ordinary = list(vtype.attributes.values())
        embeddings = list(vtype.embeddings.values())
        values = [self._eval_literal(v, params) for v in node.values]
        if len(values) < 1 or len(values) > len(ordinary) + len(embeddings):
            raise GSQLSemanticError(
                f"INSERT INTO {node.vertex_type} expects between 1 and "
                f"{len(ordinary) + len(embeddings)} values"
            )
        attrs = {}
        for attr, value in zip(ordinary, values):
            coerce = _COERCERS.get(attr.attr_type, lambda v: v)
            attrs[attr.name] = coerce(value)
        with self.db.begin() as txn:
            pk = attrs[vtype.primary_key]
            txn.upsert_vertex(node.vertex_type, pk, attrs)
            for emb, value in zip(embeddings, values[len(ordinary):]):
                txn.set_embedding(node.vertex_type, pk, emb.name, np.asarray(value))
        return 1

    def _insert_edge(self, node: ast.InsertEdge, params: dict) -> int:
        if len(node.values) != 2:
            raise GSQLSemanticError("INSERT INTO EDGE expects (from_pk, to_pk)")
        from_pk = self._eval_literal(node.values[0], params)
        to_pk = self._eval_literal(node.values[1], params)
        with self.db.begin() as txn:
            txn.add_edge(node.edge_type, from_pk, to_pk)
        return 1

    def _delete_vertices(self, node: ast.DeleteVertex, params: dict) -> int:
        vtype = self.db.schema.vertex_type(node.vertex_type)
        doomed = []
        with self.db.snapshot() as snapshot:
            ctx = ExecutionContext(db=self.db, snapshot=snapshot, vars=dict(params))
            for vid, row in snapshot.scan(node.vertex_type):
                env = {node.alias: (node.vertex_type, vid)}
                if node.where is None or bool(eval_expr(node.where, ctx, env)):
                    doomed.append(row[vtype.primary_key])
        if doomed:
            with self.db.begin() as txn:
                for pk in doomed:
                    txn.delete_vertex(node.vertex_type, pk)
        return len(doomed)

    # ------------------------------------------------------------------ DDL
    def _make_attr(self, attr_def: ast.AttrDef):
        from ..graph.schema import Attribute

        type_key = attr_def.type_name.upper().replace(" ", "")
        attr_type = _ATTR_TYPES.get(type_key)
        if attr_type is None:
            raise GSQLSemanticError(f"unsupported attribute type '{attr_def.type_name}'")
        return Attribute(attr_def.name, attr_type, attr_def.primary_key)

    def _ddl_create_vertex(self, node: ast.CreateVertex) -> None:
        self.db.schema.create_vertex_type(
            node.name, [self._make_attr(a) for a in node.attributes]
        )

    def _embedding_options(self, options: dict[str, Any]) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for key, value in options.items():
            key = key.upper()
            if key == "DIMENSION":
                out["dimension"] = int(value)
            elif key == "MODEL":
                out["model"] = str(value)
            elif key == "INDEX":
                out["index"] = IndexType(str(value).upper())
            elif key == "DATATYPE":
                out["datatype"] = DataType(str(value).upper())
            elif key == "METRIC":
                out["metric"] = Metric(str(value).upper())
            elif key == "M":
                out.setdefault("index_params", {})["M"] = int(value)
            elif key in ("EF_CONSTRUCTION", "EFCONSTRUCTION", "EFB"):
                out.setdefault("index_params", {})["ef_construction"] = int(value)
            else:
                raise GSQLSemanticError(f"unknown embedding option '{key}'")
        return out

    # -------------------------------------------------------------- loading
    def _run_loading_job(self, node: ast.RunLoadingJob) -> dict[str, int]:
        job = self.loading_jobs.get(node.name)
        if job is None:
            raise LoadingError(f"loading job '{node.name}' is not defined")
        stats: dict[str, int] = {}
        for clause in job.loads:
            path = node.files.get(clause.source)
            if path is None:
                raise LoadingError(
                    f"loading job '{node.name}' needs USING {clause.source}=<path>"
                )
            stats[f"{clause.target_kind}:{clause.target_name}"] = self._load_clause(
                clause, path
            )
        return stats

    def _load_clause(self, clause: ast.LoadClause, path: str) -> int:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise LoadingError(f"'{path}' is empty or has no header row")
            rows = list(reader)

        def eval_value(expr: ast.Expr, row: dict[str, str]):
            # Column references are VarRefs resolved against the CSV row.
            ctx = ExecutionContext(db=self.db, snapshot=None, vars=dict(row))
            return eval_expr(expr, ctx)

        count = 0
        if clause.target_kind == "vertex":
            vtype = self.db.schema.vertex_type(clause.target_name)
            attr_names = [self._value_name(v) for v in clause.values]
            txn = self.db.begin()
            for row in rows:
                values = [eval_value(v, row) for v in clause.values]
                attrs = {}
                for name, value in zip(attr_names, values):
                    attr = vtype.attributes.get(name)
                    if attr is None:
                        raise LoadingError(
                            f"vertex '{clause.target_name}' has no attribute '{name}'"
                        )
                    coerce = _COERCERS.get(attr.attr_type, str)
                    attrs[name] = coerce(value)
                txn.upsert_vertex(clause.target_name, attrs[vtype.primary_key], attrs)
                count += 1
                if count % 10_000 == 0:
                    txn.commit()
                    txn = self.db.begin()
            if txn.pending_ops:
                txn.commit()
        elif clause.target_kind == "edge":
            etype = self.db.schema.edge_type(clause.target_name)
            txn = self.db.begin()
            from_pk_t = self.db.schema.vertex_type(etype.from_type)
            to_pk_t = self.db.schema.vertex_type(etype.to_type)
            from_coerce = _COERCERS.get(
                from_pk_t.attributes[from_pk_t.primary_key].attr_type, str
            )
            to_coerce = _COERCERS.get(
                to_pk_t.attributes[to_pk_t.primary_key].attr_type, str
            )
            for row in rows:
                values = [eval_value(v, row) for v in clause.values]
                if len(values) < 2:
                    raise LoadingError("edge loading needs (from, to) values")
                txn.add_edge(
                    clause.target_name, from_coerce(values[0]), to_coerce(values[1])
                )
                count += 1
                if count % 20_000 == 0:
                    txn.commit()
                    txn = self.db.begin()
            if txn.pending_ops:
                txn.commit()
        elif clause.target_kind == "embedding":
            vtype = self.db.schema.vertex_type(clause.vertex_type)
            pk_attr = vtype.attributes[vtype.primary_key]
            pk_coerce = _COERCERS.get(pk_attr.attr_type, str)
            if len(clause.values) != 2:
                raise LoadingError("embedding loading needs (id, vector) values")
            pks = []
            vectors = []
            for row in rows:
                pks.append(pk_coerce(eval_value(clause.values[0], row)))
                vectors.append(
                    np.asarray(eval_value(clause.values[1], row), dtype=np.float32)
                )
            if pks:
                self.db.bulk_load_embeddings(
                    clause.vertex_type, clause.target_name, pks, np.stack(vectors)
                )
            count = len(pks)
        else:  # pragma: no cover - parser prevents this
            raise LoadingError(f"unknown load target '{clause.target_kind}'")
        return count

    @staticmethod
    def _value_name(expr: ast.Expr) -> str:
        if isinstance(expr, ast.VarRef):
            return expr.name
        raise LoadingError("vertex VALUES entries must be column names")
