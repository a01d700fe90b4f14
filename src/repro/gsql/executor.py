"""GSQL executor: interprets analyzed/planned GSQL against a TigerVectorDB.

Execution model (paper Sec. 5):

- **pure**            -> EmbeddingAction[Top k] (``core.action.topk`` through
  ``vector_search_parts``) over all segments, status-bitmap reuse
- **filtered**        -> pattern/predicates evaluated first (pre-filter), the
  qualified vertex set becomes per-segment bitmaps, one vector search call
- **range**           -> EmbeddingAction[Range] (``core.action.range_search``)
  with the same pre-filtering
- **similarity_join** -> enumerate matched paths, brute-force pair distances
  into a global HeapAccum (matched paths are sparse)
- **graph**           -> frontier expansion (set semantics) or full binding
  enumeration when ACCUM / residual predicates / multi-alias projection
  require it

Procedures execute top-down with vertex-set variables, global and
vertex-local accumulators, runtime vertex attributes (written by graph
algorithms like ``tg_louvain``), FOREACH/IF/WHILE control flow, and PRINT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core import action
from ..core.embedding import require_finite
from ..core.search import (
    SearchSpec,
    check_topk_args,
    merge_sharded_topk,
    resolve_search,
    search_merged,
    segment_bitmaps,
    vector_search_parts,
)
from ..errors import GSQLSemanticError
from ..graph.accumulators import (
    Accumulator,
    HeapAccum,
    MapAccum,
    VertexAccumMap,
    make_accumulator,
)
from ..graph.pattern import (
    EdgeHop,
    NodeMasks,
    NodePattern,
    PathPattern,
    match_bindings,
    match_frontier,
)
from ..graph.vertex import Vertex
from ..graph.vertex_set import RankedVertexSet, VertexSet
from ..index.bitmap import Bitmap
from ..telemetry import get_telemetry
from ..types import distance as metric_distance
from . import ast_nodes as ast
from .columnar import COMPARE_OPS, compile_pushdown
from .functions import BUILTINS, CONTEXT_BUILTINS, call_builtin
from .planner import build_plan
from .semantic import SelectInfo, analyze_select

__all__ = ["ExecutionContext", "execute_procedure", "execute_select"]


@dataclass
class ExecutionContext:
    """All mutable state for one query execution."""

    db: Any  # TigerVectorDB (typed loosely to avoid the import cycle)
    snapshot: Any
    vars: dict[str, Any] = field(default_factory=dict)
    global_accums: dict[str, Accumulator] = field(default_factory=dict)
    vertex_accums: dict[str, VertexAccumMap] = field(default_factory=dict)
    runtime_attrs: dict[tuple[str, int], dict[str, Any]] = field(default_factory=dict)
    prints: list[Any] = field(default_factory=list)
    default_ef: int | None = None
    #: execution trace for hybrid-search measurements (Sec. 6.5)
    metrics: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- helpers
    def set_runtime_attr(self, member: tuple[str, int], name: str, value: Any) -> None:
        self.runtime_attrs.setdefault(member, {})[name] = value

    def get_runtime_attr(self, member: tuple[str, int], name: str) -> Any:
        return self.runtime_attrs.get(member, {}).get(name)

    def make_vertex(self, vertex_type: str, vid: int) -> Vertex:
        return Vertex(vertex_type, vid, self.db.store.pk_for_vid(vertex_type, vid))

    def resolve_set(self, name: str) -> VertexSet | None:
        value = self.vars.get(name)
        return value if isinstance(value, VertexSet) else None

    def known_set_vars(self) -> set[str]:
        return {name for name, value in self.vars.items() if isinstance(value, VertexSet)}


# --------------------------------------------------------------- expressions
def _vertex_attr(ctx: ExecutionContext, member: tuple[str, int], attr: str) -> Any:
    vtype, vid = member
    schema_type = ctx.db.schema.vertex_type(vtype)
    if attr in schema_type.attributes:
        return ctx.snapshot.get_attr(vtype, vid, attr)
    runtime = ctx.get_runtime_attr(member, attr)
    if runtime is not None:
        return runtime
    if attr in schema_type.embeddings:
        store = ctx.db.service.store(vtype, attr)
        return store.get_embedding(vid, snapshot_tid=ctx.snapshot.tid)
    raise GSQLSemanticError(f"vertex '{vtype}' has no attribute '{attr}'")


def eval_expr(
    expr: ast.Expr,
    ctx: ExecutionContext,
    env: dict[str, tuple[str, int]] | None = None,
) -> Any:
    """Evaluate an expression; ``env`` binds pattern aliases to vertices."""
    env = env or {}
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.VarRef):
        if expr.name in env:
            vtype, vid = env[expr.name]
            return ctx.make_vertex(vtype, vid)
        if expr.name in ctx.vars:
            return ctx.vars[expr.name]
        raise GSQLSemanticError(f"unknown variable '{expr.name}'")
    if isinstance(expr, ast.AttrRef):
        if expr.alias in env:
            return _vertex_attr(ctx, env[expr.alias], expr.attr)
        value = ctx.vars.get(expr.alias)
        if value is not None:
            if isinstance(value, Vertex):
                return _vertex_attr(ctx, value.as_pair(), expr.attr)
            return getattr(value, expr.attr)
        raise GSQLSemanticError(f"unknown alias '{expr.alias}'")
    if isinstance(expr, ast.AccumRef):
        if expr.is_global:
            accum = ctx.global_accums.get(expr.name)
            if accum is None:
                raise GSQLSemanticError(f"undeclared accumulator '@@{expr.name}'")
            return accum.value
        if expr.alias is None or expr.alias not in env:
            raise GSQLSemanticError(
                f"vertex accumulator '@{expr.name}' needs a bound vertex alias"
            )
        vmap = ctx.vertex_accums.get(expr.name)
        if vmap is None:
            raise GSQLSemanticError(f"undeclared vertex accumulator '@{expr.name}'")
        return vmap.get(env[expr.alias])
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, ctx, env)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return not eval_expr(expr.operand, ctx, env)
        if expr.op == "-":
            return -eval_expr(expr.operand, ctx, env)
        raise GSQLSemanticError(f"unknown unary operator '{expr.op}'")
    if isinstance(expr, ast.FuncCall):
        return _eval_call(expr, ctx, env)
    if isinstance(expr, ast.ListLiteral):
        return [eval_expr(item, ctx, env) for item in expr.items]
    if isinstance(expr, ast.TupleLiteral):
        return tuple(eval_expr(item, ctx, env) for item in expr.items)
    if isinstance(expr, ast.VectorAttrSet):
        return [qn.qualified for qn in expr.attrs]
    if isinstance(expr, ast.MapLiteral):
        return {entry.key: eval_expr(entry.value, ctx, env) for entry in expr.entries}
    if isinstance(expr, ast.SelectBlock):
        return execute_select(expr, ctx)
    if isinstance(expr, ast.SetOpExpr):
        left = eval_expr(expr.left, ctx, env)
        right = eval_expr(expr.right, ctx, env)
        if not isinstance(left, VertexSet) or not isinstance(right, VertexSet):
            raise GSQLSemanticError(f"{expr.op} requires two vertex sets")
        if expr.op == "UNION":
            return left.union(right)
        if expr.op == "INTERSECT":
            return left.intersect(right)
        return left.minus(right)
    raise GSQLSemanticError(f"cannot evaluate expression {type(expr).__name__}")


def _eval_binary(expr: ast.BinaryOp, ctx: ExecutionContext, env) -> Any:
    op = expr.op
    if op == "AND":
        return bool(eval_expr(expr.left, ctx, env)) and bool(eval_expr(expr.right, ctx, env))
    if op == "OR":
        return bool(eval_expr(expr.left, ctx, env)) or bool(eval_expr(expr.right, ctx, env))
    left = eval_expr(expr.left, ctx, env)
    right = eval_expr(expr.right, ctx, env)
    compare = COMPARE_OPS.get(op)
    if compare is not None:
        return compare(left, right)
    if op == "IN":
        if isinstance(right, VertexSet) and isinstance(left, Vertex):
            return left.as_pair() in right
        return left in right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    raise GSQLSemanticError(f"unknown operator '{op}'")


def _eval_call(expr: ast.FuncCall, ctx: ExecutionContext, env) -> Any:
    name = expr.name
    upper = name.upper()
    if upper == "VECTOR_DIST":
        return _eval_vector_dist(expr, ctx, env)
    if upper == "VECTORSEARCH":
        return _eval_vector_search_fn(expr, ctx, env)
    args = [eval_expr(arg, ctx, env) for arg in expr.args]
    return call_builtin(name, ctx, args)


def _embedding_of(ctx: ExecutionContext, ref: ast.AttrRef, env) -> tuple[np.ndarray, Any]:
    vtype, vid = env[ref.alias]
    embedding = ctx.db.schema.vertex_type(vtype).embedding(ref.attr)
    store = ctx.db.service.store(vtype, ref.attr)
    vector = store.get_embedding(vid, snapshot_tid=ctx.snapshot.tid)
    if vector is None:
        raise GSQLSemanticError(
            f"vertex {vtype}({vid}) has no value for embedding '{ref.attr}'"
        )
    return vector, embedding.metric


def _eval_vector_dist(expr: ast.FuncCall, ctx: ExecutionContext, env) -> float:
    """Direct VECTOR_DIST evaluation (residual predicates, ACCUM bodies)."""
    if len(expr.args) != 2:
        raise GSQLSemanticError("VECTOR_DIST takes exactly two arguments")
    metric = None
    values = []
    for arg in expr.args:
        if isinstance(arg, ast.AttrRef) and arg.alias in (env or {}):
            vector, m = _embedding_of(ctx, arg, env)
            metric = metric or m
            values.append(vector)
        else:
            values.append(np.asarray(eval_expr(arg, ctx, env), dtype=np.float32))
    if metric is None:
        from ..types import Metric

        metric = Metric.L2
    return metric_distance(values[0], values[1], metric)


def _eval_vector_search_fn(expr: ast.FuncCall, ctx: ExecutionContext, env) -> VertexSet:
    """The VectorSearch() builtin (Sec. 5.5)."""
    if len(expr.args) < 3:
        raise GSQLSemanticError("VectorSearch(attrs, query_vector, k[, options])")
    attrs_node = expr.args[0]
    if isinstance(attrs_node, ast.VectorAttrSet):
        attrs = [qn.qualified for qn in attrs_node.attrs]
    else:
        value = eval_expr(attrs_node, ctx, env)
        attrs = list(value) if isinstance(value, (list, tuple)) else [value]
    query = eval_expr(expr.args[1], ctx, env)
    k = eval_expr(expr.args[2], ctx, env)
    filter_set: VertexSet | None = None
    ef: int | None = ctx.default_ef
    user_map: MapAccum | None = None
    if len(expr.args) >= 4:
        options_node = expr.args[3]
        if not isinstance(options_node, ast.MapLiteral):
            raise GSQLSemanticError("VectorSearch options must be a {key: value} map")
        for entry in options_node.entries:
            key = entry.key.lower()
            if key == "filter":
                value = eval_expr(entry.value, ctx, env)
                if not isinstance(value, VertexSet):
                    raise GSQLSemanticError("VectorSearch filter must be a vertex set")
                filter_set = value
            elif key == "ef":
                ef = eval_expr(entry.value, ctx, env)
            elif key in ("distancemap", "distance_map"):
                if not isinstance(entry.value, ast.AccumRef) or not entry.value.is_global:
                    raise GSQLSemanticError("distanceMap must be a global map accumulator")
                accum = ctx.global_accums.get(entry.value.name)
                if not isinstance(accum, MapAccum):
                    raise GSQLSemanticError(
                        f"'@@{entry.value.name}' is not a Map accumulator"
                    )
                user_map = accum
            else:
                raise GSQLSemanticError(f"unknown VectorSearch option '{entry.key}'")
    start = time.perf_counter()
    spec = SearchSpec(ctx.db.service, attrs, query, k, ef=ef, filter=filter_set)
    top = search_merged(ctx.db.service, ctx.snapshot, spec, spec.filter)
    ctx.metrics["vector_seconds"] = time.perf_counter() - start
    if filter_set is not None:
        ctx.metrics["num_candidates"] = len(filter_set)
    ranking = [((vertex_type, vid), dist) for dist, vertex_type, vid in top]
    if user_map is not None:
        for member, dist in ranking:
            user_map.put(ctx.make_vertex(*member), dist)
    return RankedVertexSet(ranking, name="TopK")


# -------------------------------------------------------------- SELECT block
def _to_pattern(info: SelectInfo) -> PathPattern:
    nodes = [NodePattern(n.alias, n.label) for n in info.block.pattern.nodes]
    hops = [
        EdgeHop(e.edge_type, "out" if e.direction == "any" else e.direction, e.repeat)
        for e in info.block.pattern.edges
    ]
    return PathPattern(nodes, hops)


def _alias_masks(
    info: SelectInfo, ctx: ExecutionContext, alias: str, conjuncts: list[ast.Expr]
) -> NodeMasks:
    """One alias's pushdown conjuncts: a column program, with ``check`` behind it."""

    def check(vid: int, row: dict) -> bool:
        # The matcher annotates rows with their member type, which
        # resolves set-variable labels whose types vary per member.
        vtype = row.get("_type") or info.alias_types.get(alias)
        # Runtime attrs (e.g. Louvain cid) aren't in the row; fall
        # back to full attribute resolution through the context.
        member = (vtype, vid) if vtype else None
        env = {alias: member} if member else {}
        try:
            return all(bool(eval_expr(c, ctx, env)) for c in conjuncts)
        except GSQLSemanticError:
            return False

    program = compile_pushdown(alias, conjuncts, lambda expr: eval_expr(expr, ctx))
    return NodeMasks(ctx.snapshot, check, program.mask if program else None)


def _node_filters(info: SelectInfo, ctx: ExecutionContext) -> dict[str, NodeMasks]:
    return {
        alias: _alias_masks(info, ctx, alias, conjuncts)
        for alias, conjuncts in info.pushdown.items()
    }


def _record_filter_mode(filters: dict[str, NodeMasks], ctx: ExecutionContext) -> None:
    """Say, once the block has run, whether its pushdown stayed columnar."""
    if not filters:
        return
    tel = get_telemetry()
    for masks in filters.values():
        tel.inc("gsql.pushdown_columnar" if masks.columnar else "gsql.pushdown_rowwise")
    columnar = all(masks.columnar for masks in filters.values())
    ctx.metrics["filter_mode"] = "columnar" if columnar else "rowwise"


def _candidate_set(
    info: SelectInfo, ctx: ExecutionContext, filters: dict[str, NodeMasks], target_alias: str
) -> VertexSet:
    """Evaluate the pattern + predicates; distinct vertices for one alias."""
    pattern = _to_pattern(info)
    if not info.residual:
        sets = match_frontier(
            ctx.snapshot, ctx.db.schema, pattern,
            node_filters=filters, resolve_set=ctx.resolve_set,
        )
        return sets.get(target_alias, VertexSet(name=target_alias))
    out = VertexSet(name=target_alias)
    for binding in match_bindings(
        ctx.snapshot, ctx.db.schema, pattern,
        node_filters=filters, resolve_set=ctx.resolve_set,
    ):
        if all(bool(eval_expr(c, ctx, binding)) for c in info.residual):
            member = binding.get(target_alias)
            if member is not None:
                out.add(*member)
    return out


def _prefilter(
    info: SelectInfo, ctx: ExecutionContext, filters: dict[str, NodeMasks], target_alias: str
) -> tuple[dict[str, list[Bitmap]], int]:
    """The searched alias's pre-filter: per-segment bitmaps by vertex type, and their count.

    A block that is one typed node with pushdown predicates only needs no
    pattern matching: the alias's per-segment masks *are* the bitmaps.
    Anything else matches the pattern and marks the vertices it found.  A
    type with no candidate is left out.
    """
    nodes = info.block.pattern.nodes
    masks = filters.get(target_alias)
    label = nodes[0].label
    if (
        len(nodes) == 1
        and masks is not None
        and not info.residual
        and label
        and ctx.db.schema.has_vertex_type(label)
        and ctx.resolve_set(label) is None
    ):
        bitmaps = [Bitmap.wrap(mask) for mask in masks.masks(label)]
        count = sum(bitmap.count() for bitmap in bitmaps)
        return ({label: bitmaps} if count else {}), count
    candidates = _candidate_set(info, ctx, filters, target_alias)
    by_type = {
        vertex_type: segment_bitmaps(candidates, ctx.snapshot, vertex_type)
        for vertex_type in candidates.vertex_types()
    }
    return by_type, len(candidates)


def _run_accums(
    stmts: list[ast.AccumStmt], ctx: ExecutionContext, env: dict[str, tuple[str, int]]
) -> None:
    for stmt in stmts:
        value = eval_expr(stmt.value, ctx, env)
        if isinstance(value, Vertex):
            pass  # vertices accumulate as handles
        target = stmt.target
        if target.is_global:
            accum = ctx.global_accums.get(target.name)
            if accum is None:
                raise GSQLSemanticError(f"undeclared accumulator '@@{target.name}'")
            accum.accum(value)
        else:
            if target.alias is None or target.alias not in env:
                raise GSQLSemanticError(
                    f"vertex accumulator '@{target.name}' needs a bound alias"
                )
            vmap = ctx.vertex_accums.setdefault(target.name, VertexAccumMap(lambda: make_accumulator("SumAccum")))
            vmap.for_vertex(env[target.alias]).accum(value)


def execute_select(block: ast.SelectBlock, ctx: ExecutionContext) -> Any:
    """Execute one SELECT block; returns a VertexSet / ranked set / table."""
    tel = get_telemetry()
    with tel.span("gsql.plan", record="gsql.plan_seconds") as pspan:
        info = analyze_select(block, ctx.db.schema, known_vars=ctx.known_set_vars())
        plan = build_plan(info)
        pspan.set(shape=info.shape)
    ctx.metrics["last_plan"] = plan.explain()
    filters = _node_filters(info, ctx)
    result = _exec_shape(info, ctx, filters)
    _record_filter_mode(filters, ctx)
    return result


def _exec_shape(info: SelectInfo, ctx: ExecutionContext, filters: dict[str, NodeMasks]) -> Any:
    shape = info.shape
    if shape == "pure":
        return _exec_vector_topk(info, ctx, candidates=None)
    if shape == "filtered":
        target = info.vector.alias
        start = time.perf_counter()
        candidates, ctx.metrics["num_candidates"] = _prefilter(info, ctx, filters, target)
        ctx.metrics["filter_seconds"] = time.perf_counter() - start
        return _exec_vector_topk(info, ctx, candidates=candidates)
    if shape == "range":
        return _exec_vector_range(info, ctx, filters)
    if shape == "similarity_join":
        return _exec_similarity_join(info, ctx, filters)
    return _exec_graph_block(info, ctx, filters)


def _resolve_target_type(info: SelectInfo, ctx: ExecutionContext, alias: str) -> str:
    vtype = info.alias_types.get(alias)
    if vtype:
        return vtype
    label = info.alias_labels.get(alias)
    if label and ctx.db.schema.has_vertex_type(label):
        return label
    raise GSQLSemanticError(f"cannot resolve the vertex type of alias '{alias}'")


def _exec_vector_topk(
    info: SelectInfo, ctx: ExecutionContext, candidates: dict[str, list[Bitmap]] | None
) -> RankedVertexSet:
    vec = info.vector
    query = eval_expr(vec.query_expr, ctx)
    k = eval_expr(vec.k_expr, ctx)
    try:
        target_types = [_resolve_target_type(info, ctx, vec.alias)]
    except GSQLSemanticError:
        # The alias is labeled by a vertex-set variable whose member types
        # are only known at runtime — search every candidate type carrying
        # this embedding attribute (multi-type search, Sec. 5.5).
        if candidates is None:
            raise
        target_types = sorted(
            t for t in candidates if vec.attr in ctx.db.schema.vertex_type(t).embeddings
        )
    start = time.perf_counter()
    top: list[tuple[float, str, int]] = []
    if target_types:
        # The block's candidates are the pre-filter; the spec has no filter.
        spec = SearchSpec(
            ctx.db.service,
            [f"{vertex_type}.{vec.attr}" for vertex_type in target_types],
            query,
            k,
            ef=ctx.default_ef,
        )
        parts, ctx.metrics["action_stats"] = vector_search_parts(
            ctx.db.service, ctx.snapshot, spec, candidates
        )
        top = merge_sharded_topk([parts], spec.k)
    else:
        # Nothing to search, but a bad k or query is refused all the same.
        check_topk_args(k)
        require_finite(np.asarray(query, dtype=np.float32), "query vector")
    ctx.metrics["vector_seconds"] = time.perf_counter() - start
    ranking = [((vertex_type, vid), dist) for dist, vertex_type, vid in top]
    out = RankedVertexSet(ranking, name="TopK")
    for member, _ in ranking:
        _run_accums(info.block.accum, ctx, {vec.alias: member})
        _run_accums(info.block.post_accum, ctx, {vec.alias: member})
    return out


def _exec_vector_range(
    info: SelectInfo, ctx: ExecutionContext, filters: dict[str, NodeMasks]
) -> RankedVertexSet:
    vec = info.vector
    vertex_type = _resolve_target_type(info, ctx, vec.alias)
    query = require_finite(
        np.asarray(eval_expr(vec.query_expr, ctx), dtype=np.float32), "query vector"
    )
    resolve_search(ctx.db.service, [f"{vertex_type}.{vec.attr}"], query.size)
    store = ctx.db.service.store(vertex_type, vec.attr)
    threshold = float(eval_expr(vec.threshold_expr, ctx))
    bitmaps = None
    needs_filter = (
        len(info.block.pattern.nodes) > 1 or info.pushdown or info.residual
        or (info.alias_labels.get(vec.alias) in ctx.known_set_vars())
    )
    if needs_filter:
        candidates, ctx.metrics["num_candidates"] = _prefilter(info, ctx, filters, vec.alias)
        bitmaps = candidates.get(vertex_type)
        if bitmaps is None:
            return RankedVertexSet([], name="Range")
    start = time.perf_counter()
    pairs, ctx.metrics["action_stats"] = action.range_search(
        store, query, threshold, ctx.snapshot.tid, ef=ctx.default_ef, bitmaps=bitmaps
    )
    ctx.metrics["vector_seconds"] = time.perf_counter() - start
    ranking = [((vertex_type, vid), dist) for dist, vid in pairs]
    return RankedVertexSet(ranking, name="Range")


def _exec_similarity_join(
    info: SelectInfo, ctx: ExecutionContext, filters: dict[str, NodeMasks]
) -> list[dict]:
    """Sec. 5.4: brute-force pair distances over matched paths, global heap."""
    vec = info.vector
    k = eval_expr(vec.k_expr, ctx)
    check_topk_args(k)
    left_type = _resolve_target_type(info, ctx, vec.alias)
    right_type = _resolve_target_type(info, ctx, vec.right_alias)
    left_store = ctx.db.service.store(left_type, vec.attr)
    right_store = ctx.db.service.store(right_type, vec.right_attr)
    metric = ctx.db.schema.vertex_type(left_type).embedding(vec.attr).metric
    pattern = _to_pattern(info)
    heap = HeapAccum(k, ascending=True)
    cache: dict[tuple[str, int], np.ndarray | None] = {}

    def embedding(store, member):
        vector = cache.get(member)
        if member not in cache:
            vector = store.get_embedding(member[1], snapshot_tid=ctx.snapshot.tid)
            cache[member] = vector
        return vector

    seen_pairs: set[tuple] = set()
    start = time.perf_counter()
    for binding in match_bindings(
        ctx.snapshot, ctx.db.schema, pattern,
        node_filters=filters, resolve_set=ctx.resolve_set,
    ):
        if info.residual and not all(
            bool(eval_expr(c, ctx, binding)) for c in info.residual
        ):
            continue
        left = binding[vec.alias]
        right = binding[vec.right_alias]
        if left == right:
            continue  # a vertex is trivially closest to itself
        # Symmetric patterns bind every pair twice ((a,b) and (b,a)); the
        # paper's "top-k most similar pairs" counts each pair once.
        pair = (left, right) if (left <= right) else (right, left)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        pair = (left, right)
        lvec = embedding(left_store, left)
        rvec = embedding(right_store, right)
        if lvec is None or rvec is None:
            continue
        heap.accum((metric_distance(lvec, rvec, metric), pair))
    ctx.metrics["vector_seconds"] = time.perf_counter() - start
    ctx.metrics["num_candidates"] = len(seen_pairs)
    rows = []
    for dist, (left, right) in heap.value:
        rows.append(
            {
                vec.alias: ctx.make_vertex(*left),
                vec.right_alias: ctx.make_vertex(*right),
                "distance": dist,
            }
        )
    return rows


def _exec_graph_block(
    info: SelectInfo, ctx: ExecutionContext, filters: dict[str, NodeMasks]
) -> Any:
    block = info.block
    pattern = _to_pattern(info)
    needs_bindings = bool(
        info.residual or block.accum or len(block.select) > 1
    )
    if not needs_bindings:
        target = block.select[0]
        result = _candidate_set(info, ctx, filters, target)
        for member in list(result):
            _run_accums(block.post_accum, ctx, {target: member})
        return _order_limit(result, info, ctx)
    rows: list[dict[str, tuple[str, int]]] = []
    for binding in match_bindings(
        ctx.snapshot, ctx.db.schema, pattern,
        node_filters=filters, resolve_set=ctx.resolve_set,
    ):
        if info.residual and not all(
            bool(eval_expr(c, ctx, binding)) for c in info.residual
        ):
            continue
        _run_accums(block.accum, ctx, binding)
        rows.append(dict(binding))
    if len(block.select) > 1:
        projected = []
        seen = set()
        for row in rows:
            key = tuple(row.get(alias) for alias in block.select)
            if key in seen:
                continue
            seen.add(key)
            projected.append(
                {alias: ctx.make_vertex(*row[alias]) for alias in block.select if alias in row}
            )
        return projected
    target = block.select[0]
    out = VertexSet(name=target)
    for row in rows:
        member = row.get(target)
        if member is not None:
            out.add(*member)
    for member in list(out):
        _run_accums(block.post_accum, ctx, {target: member})
    return _order_limit(out, info, ctx)


def _order_limit(result: VertexSet, info: SelectInfo, ctx: ExecutionContext) -> VertexSet:
    block = info.block
    if block.order_by is None and block.limit is None:
        return result
    target = block.select[0]
    members = list(result)
    if block.order_by is not None:
        keyed = [
            (eval_expr(block.order_by.expr, ctx, {target: member}), member)
            for member in members
        ]
        keyed.sort(key=lambda e: e[0], reverse=not block.order_by.ascending)
        members = [member for _, member in keyed]
    if block.limit is not None:
        members = members[: int(eval_expr(block.limit, ctx))]
    out = VertexSet(members, name=result.name)
    return out


# ---------------------------------------------------------------- procedures
def execute_procedure(
    proc: ast.CreateQuery, ctx: ExecutionContext, params: dict[str, Any]
) -> None:
    """Run a CREATE QUERY body with the given parameter values."""
    for decl in proc.params:
        if decl.name not in params:
            raise GSQLSemanticError(f"missing query parameter '{decl.name}'")
        ctx.vars[decl.name] = params[decl.name]
    for decl in proc.accum_decls:
        ctor_args = [eval_expr(arg, ctx) for arg in decl.ctor_args]
        if decl.is_global:
            ctx.global_accums[decl.name] = make_accumulator(decl.kind, *ctor_args)
        else:
            kind, args = decl.kind, list(ctor_args)
            ctx.vertex_accums[decl.name] = VertexAccumMap(
                lambda kind=kind, args=args: make_accumulator(kind, *args)
            )
    _run_statements(proc.body, ctx)


def _run_statements(stmts: list[ast.Statement], ctx: ExecutionContext) -> None:
    for stmt in stmts:
        _run_statement(stmt, ctx)


def _run_statement(stmt: ast.Statement, ctx: ExecutionContext) -> None:
    if isinstance(stmt, ast.AssignStmt):
        value = eval_expr(stmt.value, ctx)
        if isinstance(value, VertexSet) and not value.name:
            value.name = stmt.target
        ctx.vars[stmt.target] = value
    elif isinstance(stmt, ast.AccumulateStmt):
        if not stmt.target.is_global:
            raise GSQLSemanticError(
                "statement-level accumulation requires a global accumulator"
            )
        accum = ctx.global_accums.get(stmt.target.name)
        if accum is None:
            raise GSQLSemanticError(f"undeclared accumulator '@@{stmt.target.name}'")
        accum.accum(eval_expr(stmt.value, ctx))
    elif isinstance(stmt, ast.PrintStmt):
        for expr in stmt.exprs:
            ctx.prints.append(_printable(eval_expr(expr, ctx), ctx))
    elif isinstance(stmt, ast.ForeachStmt):
        if stmt.iterable is not None:
            iterable = eval_expr(stmt.iterable, ctx)
        else:
            lo = int(eval_expr(stmt.range_from, ctx))
            hi = int(eval_expr(stmt.range_to, ctx))
            iterable = range(lo, hi + 1)  # GSQL RANGE is inclusive
        for value in iterable:
            ctx.vars[stmt.var] = value
            _run_statements(stmt.body, ctx)
    elif isinstance(stmt, ast.IfStmt):
        if eval_expr(stmt.condition, ctx):
            _run_statements(stmt.then_body, ctx)
        else:
            _run_statements(stmt.else_body, ctx)
    elif isinstance(stmt, ast.WhileStmt):
        iterations = 0
        while eval_expr(stmt.condition, ctx):
            if stmt.limit is not None and iterations >= stmt.limit:
                break
            _run_statements(stmt.body, ctx)
            iterations += 1
    elif isinstance(stmt, ast.ExprStmt):
        eval_expr(stmt.expr, ctx)
    else:
        raise GSQLSemanticError(f"cannot execute statement {type(stmt).__name__}")


def _printable(value: Any, ctx: ExecutionContext) -> Any:
    """Convert engine objects into user-recognizable output."""
    if isinstance(value, RankedVertexSet):
        return {
            "name": value.name,
            "vertices": [
                (ctx.make_vertex(*member), dist) for member, dist in value.ranking
            ],
        }
    if isinstance(value, VertexSet):
        return {
            "name": value.name,
            "vertices": sorted(
                (ctx.make_vertex(*member) for member in value),
                key=lambda v: (v.vertex_type, str(v.pk)),
            ),
        }
    if isinstance(value, MapAccum):
        return value.value
    return value
