"""Columnar pre-filter: column kernels must equal the row-wise ``check`` bit for bit.

A Hypothesis differential test draws WHERE predicates from the compiled
grammar and from the must-fall-back list, evaluates them over stores in four
MVCC states, and compares (a) the per-segment candidate masks and (b) whole
``run_gsql`` rankings against the same code with the column compiler switched
off.  The remaining tests pin the satellites that ride along: linear vertex
load, vectorized ``bitmap_from_vids``, and the visible ``filter_mode``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Attribute, AttrType, Metric, TigerVectorDB
from repro.graph.accumulators import VertexAccumMap, make_accumulator
from repro.graph.segment import SegmentState
from repro.gsql.columnar import compile_pushdown
from repro.gsql.executor import ExecutionContext, _node_filters
from repro.gsql.parser import parse
from repro.gsql.semantic import analyze_select
from repro.telemetry import Telemetry, use_telemetry

DIM = 4
ROWS = 40
SEGMENT = 8
PARAMS = {"pi": 2, "pf": 0.5, "ps": "ab"}
NAMES = ["", "a", "ab", "b", "B"]
FLOATS = [-2.0, -0.5, 0.0, 0.5, 1.5, 2.0, float("inf"), float("nan")]


def _row(i: int) -> dict:
    return {
        "id": i,
        "n": 2**40 if i == 5 else (i * 7) % 9 - 4,
        "x": FLOATS[i % len(FLOATS)],
        "flag": i % 3 == 0,
        "name": NAMES[i % len(NAMES)],
        "opt": None if i % 7 == 0 else i % 4,  # a None-holed column
    }


def _vector(i: int) -> np.ndarray:
    return np.random.default_rng(i).standard_normal(DIM).astype(np.float32)


def _mutate(db: TigerVectorDB) -> None:
    """Upserts (partial and whole-row), deletes and one insert, left as pending deltas."""
    with db.begin() as txn:
        txn.upsert_vertex("Doc", 3, {"n": 4})
        txn.upsert_vertex("Doc", 12, {"x": -0.5, "name": "b", "flag": True})
        txn.upsert_vertex("Doc", 20, _row(33) | {"id": 20})
        txn.delete_vertex("Doc", 9)
        txn.delete_vertex("Doc", 31)
        txn.upsert_vertex("Doc", ROWS, _row(ROWS))
        txn.set_embedding("Doc", ROWS, "emb", _vector(ROWS))


def _build(state: str):
    """A store in one MVCC state, and the snapshot the masks are read at."""
    db = TigerVectorDB(segment_size=SEGMENT)
    db.schema.create_vertex_type(
        "Doc",
        [
            Attribute("id", AttrType.INT, primary_key=True),
            Attribute("n", AttrType.INT),
            Attribute("x", AttrType.FLOAT),
            Attribute("flag", AttrType.BOOL),
            Attribute("name", AttrType.STRING),
            Attribute("opt", AttrType.INT),
        ],
    )
    db.schema.add_embedding_attribute("Doc", "emb", dimension=DIM, metric=Metric.L2)
    db.bulk_load_vertices("Doc", [_row(i) for i in range(ROWS)])
    db.bulk_load_embeddings(
        "Doc", "emb", list(range(ROWS)), np.stack([_vector(i) for i in range(ROWS)])
    )
    assert db.store.pending_delta_count() == 0  # the load folded its own deltas
    if state == "bulk":
        return db, db.snapshot()
    if state == "pinned":
        pinned = db.snapshot()  # keeps the bulk-load version alive below
        _mutate(db)
        db.vacuum()
        segment = db.store.segments("Doc")[0]
        assert len(segment.versions) == 2 and segment.version_for(pinned.tid) is segment.versions[0]
        return db, pinned
    _mutate(db)
    if state == "vacuumed":
        db.vacuum()
        assert db.store.pending_delta_count() == 0
    else:
        assert db.store.pending_delta_count() > 0
    return db, db.snapshot()


STATES = ["bulk", "deltas", "vacuumed", "pinned"]
_STORES: dict[str, tuple] = {}


@pytest.fixture(scope="module", autouse=True)
def _close_stores():
    yield
    for db, snapshot in _STORES.values():
        snapshot.release()
        db.close()
    _STORES.clear()


def _store(state: str):
    if state not in _STORES:
        _STORES[state] = _build(state)
    return _STORES[state]


def _rowwise():
    """Switch the column compiler off: every alias takes the row-wise ``check``."""
    return mock.patch("repro.gsql.executor.compile_pushdown", return_value=None)


def _query(predicate: str) -> str:
    return f"SELECT s FROM (s:Doc) WHERE {predicate} ORDER BY VECTOR_DIST(s.emb, qv) LIMIT 5;"


def _masks(db, snapshot, predicate: str):
    """(per-segment candidate masks, stayed columnar?) for alias ``s``."""
    ctx = ExecutionContext(db=db, snapshot=snapshot, vars=dict(PARAMS))
    # Runtime state the fall-back predicates read: a Louvain-style attribute
    # and a vertex accumulator, on every vertex so comparisons never see None.
    counts = VertexAccumMap(lambda: make_accumulator("SumAccum"))
    for vid in range(ROWS + 1):
        ctx.set_runtime_attr(("Doc", vid), "cid", vid % 3)
        counts.for_vertex(("Doc", vid)).accum(vid % 4)
    ctx.vertex_accums["cnt"] = counts
    block = parse(_query(predicate))[0]
    info = analyze_select(block, db.schema, known_vars=ctx.known_set_vars())
    masks = _node_filters(info, ctx)["s"]
    out = [mask.copy() for mask in masks.masks("Doc")]
    return out, masks.columnar


# ------------------------------------------------------------- the grammar
OPS = ["==", "!=", "<", "<=", ">", ">="]
_INT_CONSTS = st.sampled_from(["-4", "-1", "0", "2", "3", "1099511627776", "pi", "1 + 1", "2 * -2"])
_FLOAT_CONSTS = st.sampled_from(["-0.5", "0.0", "0.5", "1.75", "1e3", "pf", "pf - 1.0"])
#: (column, constants, does NumPy answer exactly?)
_PAIRINGS = [
    ("n", _INT_CONSTS, True),
    ("n", _FLOAT_CONSTS, False),  # int64 -> float64 is inexact above 2**53: declined
    ("x", _FLOAT_CONSTS, True),
    ("x", _INT_CONSTS, True),
    ("flag", st.sampled_from(["TRUE", "FALSE"]), True),
    ("name", st.sampled_from(['""', '"a"', '"ab"', '"b"', '"zz"', "ps"]), True),
]


@st.composite
def _comparison(draw):
    column, consts, exact = draw(st.sampled_from(_PAIRINGS))
    const, op = draw(consts), draw(st.sampled_from(OPS))
    text = f"{const} {op} s.{column}" if draw(st.booleans()) else f"s.{column} {op} {const}"
    return text, exact


#: Predicates that must take the row-wise fallback, whatever they are nested in.
_FALLBACKS = st.sampled_from(
    [
        "s.opt == 3",  # None holes: object column
        "s.opt != 1",
        "s.name == 5",  # str column against an int
        "7 != s.name",
        "s.cid == 1",  # runtime attribute, not a column
        "s.@cnt >= 2",  # vertex accumulator
        "s.n / 2 > 1",  # arithmetic on the attribute side
        "s.n > 6 / 2",  # `/` in the constant
        "s.n % 2 == 0",
        "s.n < 9223372036854775808",  # constant beyond int64
    ]
).map(lambda text: (text, False))


def _nest(inner):
    binary = st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
        lambda t: (f"({t[0][0]} {t[1]} {t[2][0]})", t[0][1] and t[2][1])
    )
    negated = inner.map(lambda t: (f"NOT ({t[0]})", t[1]))
    return st.one_of(binary, negated)


def _predicates(leaves):
    return st.recursive(leaves, _nest, max_leaves=5)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    state=st.sampled_from(STATES),
    predicate=_predicates(st.one_of(_comparison(), _comparison(), _FALLBACKS)),
)
def test_column_masks_equal_rowwise_check(state, predicate):
    text, exact = predicate
    db, snapshot = _store(state)
    got, columnar = _masks(db, snapshot, text)
    with _rowwise():
        want, reference_columnar = _masks(db, snapshot, text)
    assert not reference_columnar
    assert columnar == exact, text
    assert len(got) == len(want) > 1
    for seg_no, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype == bool and a.shape == b.shape == (SEGMENT,)
        assert np.array_equal(a, b), (text, state, seg_no)
    live = np.concatenate(snapshot.valid_bitmaps("Doc"))
    assert not np.any(np.concatenate(got) & ~live)  # predicate AND live


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    state=st.sampled_from(STATES),
    predicate=_predicates(st.one_of(_comparison(), _comparison(), _comparison(), _FALLBACKS)),
    seed=st.integers(0, 50),
)
def test_rankings_identical_with_columnar_off(state, predicate, seed):
    text, exact = predicate
    db, _ = _store(state)
    qv = _vector(1000 + seed).tolist()
    fast = db.run_gsql(_query(text), qv=qv, **PARAMS)
    with _rowwise():
        slow = db.run_gsql(_query(text), qv=qv, **PARAMS)
    assert fast.result.ranking == slow.result.ranking
    assert fast.metrics["num_candidates"] == slow.metrics["num_candidates"]
    assert fast.metrics["filter_mode"] == ("columnar" if exact else "rowwise")
    assert slow.metrics["filter_mode"] == "rowwise"


def test_multi_hop_and_set_label_patterns_agree():
    """The mask provider also serves ``_node_ok`` (hop targets) and set-variable labels."""
    db = TigerVectorDB(segment_size=SEGMENT)
    db.schema.create_vertex_type(
        "Doc", [Attribute("id", AttrType.INT, primary_key=True), Attribute("n", AttrType.INT)]
    )
    db.schema.create_edge_type("cites", "Doc", "Doc")
    db.bulk_load_vertices("Doc", [{"id": i, "n": i % 5} for i in range(30)])
    db.bulk_load_edges("cites", [(i, (i * 3 + 1) % 30) for i in range(30)])
    with db.begin() as txn:
        txn.delete_vertex("Doc", 4)
    texts = [
        "SELECT t FROM (s:Doc) - [:cites] -> (t:Doc) WHERE s.n < 2 AND t.n >= 1;",
        "SELECT t FROM (s:Doc) - [:cites*2] -> (t:Doc) WHERE s.n == 0 AND NOT (t.n == 3);",
        "SELECT s FROM (s:Seed) WHERE s.n > 1;",
    ]
    try:
        seed = db.run_gsql("SELECT s FROM (s:Doc) WHERE s.id < 12;").result
        for text in texts:
            fast = db.run_gsql(text, Seed=seed)
            with _rowwise():
                slow = db.run_gsql(text, Seed=seed)
            assert fast.result.members() == slow.result.members() and len(fast.result) > 0
            assert (fast.metrics["filter_mode"], slow.metrics["filter_mode"]) == ("columnar", "rowwise")
    finally:
        db.close()


def _outcome(db, text: str, **params):
    """What a query does: its members, or the exception it raises."""
    try:
        return db.run_gsql(text, **params).result.members()
    except Exception as exc:  # the differential below compares these too
        return type(exc), str(exc)


def test_declined_column_checks_only_the_rows_a_hop_or_seed_reaches():
    """``None > 30`` raises per row, so the fallback must not visit rows the matcher would not."""
    db = TigerVectorDB(segment_size=SEGMENT)
    db.schema.create_vertex_type(
        "P", [Attribute("id", AttrType.INT, primary_key=True), Attribute("age", AttrType.INT)]
    )
    db.schema.create_edge_type("knows", "P", "P")
    db.bulk_load_vertices(
        "P", [{"id": 0, "age": 10}, {"id": 1, "age": 40}, {"id": 2, "age": None}, {"id": 3, "age": 50}]
    )
    db.bulk_load_edges("knows", [(0, 1), (3, 2)])
    hop = "SELECT t FROM (s:P) - [:knows] -> (t:P) WHERE s.id == {} AND t.age > 30;"
    try:
        seed = db.run_gsql("SELECT s FROM (s:P) WHERE s.id < 2;").result
        for text in (hop.format(0), "SELECT s FROM (s:Seed) WHERE s.age > 30;"):
            fast = _outcome(db, text, Seed=seed)
            with _rowwise():
                slow = _outcome(db, text, Seed=seed)
            assert fast == slow == {("P", 1)}  # vertex 2's None is never compared
        # Reaching the None row raises the same error either way.
        fast = _outcome(db, hop.format(3))
        with _rowwise():
            slow = _outcome(db, hop.format(3))
        assert fast == slow and fast[0] is TypeError
    finally:
        db.close()


def test_constant_that_fails_to_evaluate_is_left_to_the_rowwise_path():
    conjunct = parse(_query("s.n > missing"))[0].where

    def raising(expr):
        raise KeyError("missing")  # not one of the evaluator's own error types

    assert compile_pushdown("s", [conjunct], raising) is None
    assert compile_pushdown("s", [conjunct], lambda expr: 3) is not None


# ------------------------------------------------- fallback made visible
class TestFilterModeIsVisible:
    def test_attribute_predicates_run_columnar_and_count(self, loaded_post_db):
        tel = Telemetry()
        with use_telemetry(tel):
            r = loaded_post_db.run_gsql(
                'SELECT t FROM (t:Post) WHERE t.language = "en" AND t.length > 250 '
                "ORDER BY VECTOR_DIST(t.content_emb, qv) LIMIT 3;",
                qv=loaded_post_db._test_vectors[0].tolist(),
            )
        assert r.metrics["filter_mode"] == "columnar"
        assert r.metrics["num_candidates"] == 25 and r.metrics["filter_seconds"] >= 0.0
        assert r.metrics["action_stats"].segments_touched > 0
        assert tel.registry.counter("gsql.pushdown_columnar").value == 1
        assert tel.registry.counter("gsql.pushdown_rowwise").value == 0

    def test_louvain_runtime_attribute_takes_the_fallback(self, loaded_post_db):
        db = loaded_post_db
        db.gsql.install(
            """
            CREATE QUERY communities() {
              C_num = tg_louvain(["Person"], ["knows"]);
              Posts = SELECT t FROM (s:Person)<-[e:hasCreator]-(t:Post) WHERE s.cid = 0;
              PRINT Posts;
            }
            """
        )
        tel = Telemetry()
        with use_telemetry(tel):
            r = db.gsql.run_query("communities")
        assert r.metrics["filter_mode"] == "rowwise"
        assert tel.registry.counter("gsql.pushdown_rowwise").value == 1
        assert len(r.sets["Posts"]) > 0

    def test_vertex_accumulator_takes_the_fallback(self, loaded_post_db):
        db = loaded_post_db
        db.gsql.install(
            """
            CREATE QUERY busy() {
              SumAccum<INT> @cnt;
              X = SELECT p FROM (m:Post) - [:hasCreator] -> (p:Person) ACCUM p.@cnt += 1;
              Busy = SELECT p FROM (p:X) WHERE p.@cnt >= 40;
              PRINT Busy;
            }
            """
        )
        r = db.gsql.run_query("busy")
        assert r.metrics["filter_mode"] == "rowwise"
        assert len(r.sets["Busy"]) == 5

    def test_no_pushdown_reports_no_mode(self, loaded_post_db):
        r = loaded_post_db.run_gsql(
            "SELECT t FROM (t:Post) ORDER BY VECTOR_DIST(t.content_emb, qv) LIMIT 3;",
            qv=loaded_post_db._test_vectors[0].tolist(),
        )
        assert "filter_mode" not in r.metrics


# ------------------------------------------------------------- graph layer
def _count_applies(rows: int) -> int:
    db = TigerVectorDB(segment_size=500)
    db.schema.create_vertex_type(
        "Item", [Attribute("id", AttrType.INT, primary_key=True), Attribute("b", AttrType.INT)]
    )
    calls = 0
    original = SegmentState._apply

    def counting(self, op):
        nonlocal calls
        calls += 1
        return original(self, op)

    try:
        with mock.patch.object(SegmentState, "_apply", counting):
            db.bulk_load_vertices("Item", [{"id": i, "b": i % 10} for i in range(rows)])
            # Re-upserting existing rows must read one row each, too.
            db.bulk_load_vertices("Item", [{"id": i, "b": 1} for i in range(0, rows, 10)])
        with db.snapshot() as snap:
            assert snap.count("Item") == rows
            assert snap.get_attr("Item", 10, "b") == 1 and snap.get_attr("Item", 11, "b") == 1
    finally:
        db.close()
    return calls


def test_bulk_vertex_load_overlays_linearly():
    """An upsert reads its own row, not an overlay of every pending delta in the segment."""
    small, large = _count_applies(1000), _count_applies(2000)
    assert large <= 2000  # at most one delta application per loaded row, not rows**2
    assert large <= 2 * small + 100


def test_partial_upsert_merges_latest_pending_and_base_rows(post_db):
    db = post_db
    with db.begin() as txn:
        txn.upsert_vertex("Post", 1, {"language": "en", "length": 5})
        txn.upsert_vertex("Post", 1, {"length": 6})  # same commit: sees the op just before it
    with db.begin() as txn:
        txn.upsert_vertex("Post", 1, {"language": "fr"})  # pending delta of an earlier commit
    db.vacuum()
    with db.begin() as txn:
        txn.upsert_vertex("Post", 1, {"length": 7})  # row now lives in the base version
    with db.begin() as txn:
        txn.delete_vertex("Post", 1)
    with db.begin() as txn:
        txn.upsert_vertex("Post", 1, {"length": 8})  # after a delete: defaults, not old values
    with db.snapshot() as snap:
        row = snap.get_vertex("Post", db.vid_for("Post", 1))
    assert row == {"id": 1, "language": "", "length": 8}


def test_bitmap_from_vids_marks_exactly_the_vids(post_db):
    db = post_db
    db.bulk_load_vertices("Post", [{"id": i} for i in range(150)])  # segments of 64: 3
    vids = {0, 63, 64, 130, 149}
    with db.snapshot() as snap:
        for given_vids in (vids, sorted(vids), iter(vids), vids | {192, 10_000}):
            masks = snap.bitmap_from_vids("Post", given_vids)
            assert len(masks) == 3 and all(m.shape == (64,) and m.dtype == bool for m in masks)
            marked = {seg_no * 64 + int(off) for seg_no, m in enumerate(masks) for off in np.flatnonzero(m)}
            assert marked == vids  # vids beyond the last segment are ignored
        assert not any(m.any() for m in snap.bitmap_from_vids("Post", []))


def test_column_arrays_are_cached_per_version_not_per_state(post_db):
    db = post_db
    db.bulk_load_vertices("Post", [{"id": i, "language": "en", "length": i} for i in range(10)])
    with db.snapshot() as first, db.snapshot() as second:
        a = first.segment_state("Post", 0).column_array("length")
        b = second.segment_state("Post", 0).column_array("length")
        assert a is b and a.dtype == np.int64 and a.tolist() == list(range(10))
        assert first.segment_state("Post", 0).column_array("language").dtype.kind == "U"
        assert first.segment_state("Post", 0).column_array("missing") is None
    with db.begin() as txn:
        txn.upsert_vertex("Post", 2, {"length": 99})
    with db.snapshot() as snap:
        overlaid = snap.segment_state("Post", 0).column_array("length")
        assert overlaid is not a and overlaid[2] == 99 and a[2] == 2
    with db.begin() as txn:
        txn.upsert_vertex("Post", 3, {"length": None})
        txn.upsert_vertex("Post", 4, {"language": "nul\0"})
    db.vacuum()
    with db.snapshot() as snap:
        state = snap.segment_state("Post", 0)
        assert state.column_array("length") is None  # a None hole has no exact typed form
        assert state.column_array("language") is None  # NumPy would drop the trailing NUL
        assert state.column_array("id").dtype == np.int64
