"""One search, many doors: every entry point gives the same answer.

``core/search.py::vector_search_parts`` is the one attribute loop;
``db.vector_search``, GSQL ``VectorSearch()``, GSQL ``ORDER BY VECTOR_DIST
… LIMIT k``, ``AccessController.authorized_search``, ``QueryServer.search``
and a 2-server ``ElasticTier.search`` are doors onto it.  The differential
test asserts identical members *and* distance maps across all of them for
seeded requests — unfiltered, ``VertexSet``-filtered on both sides of the
brute-force flip, two compatible attributes, role-scoped — so a fifth copy
of the loop that forgets a check shows up here.  The tests below it pin the
holes the copies had (each fails at the commit before the loop was made
one).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Attribute, AttrType, Metric, TigerVectorDB, VertexSet
from repro.core.auth import AuthorizationError
from repro.elastic import ElasticTier
from repro.errors import (
    DimensionMismatchError,
    EmbeddingCompatibilityError,
    VectorSearchError,
)
from repro.graph.accumulators import MapAccum
from repro.serve import QueryServer, ServeConfig, Tenant
from repro.serve.server import MIN_FUSED
from repro.telemetry import Telemetry, use_telemetry

DIM, ROWS, K = 8, 100, 5
BF_THRESHOLD = 8  # rows per 32-row segment below which a filtered scan is exact
TENANTS = [Tenant("limited", role="en_only")]
CONFIG = ServeConfig(workers=1, enable_batching=False)


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(2323)
    db = TigerVectorDB(segment_size=32, bf_threshold=BF_THRESHOLD)
    attrs = [
        Attribute("id", AttrType.INT, primary_key=True),
        Attribute("lang", AttrType.STRING),
        Attribute("bucket", AttrType.INT),
    ]
    for name, metric in (("Post", Metric.L2), ("Comment", Metric.L2), ("Note", Metric.COSINE)):
        db.schema.create_vertex_type(name, list(attrs))
        db.schema.add_embedding_attribute(name, "emb", dimension=DIM, model="m", metric=metric)
    with db.begin() as txn:
        for name in ("Post", "Comment", "Note"):
            for i in range(ROWS):
                txn.upsert_vertex(name, i, {"lang": "en" if i % 3 else "fr", "bucket": i})
                txn.set_embedding(name, i, "emb", rng.standard_normal(DIM))
    db.vacuum()
    with db.begin() as txn:  # a delta overlay and a tombstone, like a live store
        txn.set_embedding("Post", 7, "emb", rng.standard_normal(DIM))
        txn.delete_vertex("Comment", 11)
    english = lambda row: row["lang"] == "en"  # noqa: E731
    db.access.create_role("en_only", {"Post": english, "Comment": english})
    db.gsql.install(
        """
        CREATE QUERY SearchAll(List<FLOAT> qv, INT k) {
          Map<VERTEX, FLOAT> @@d;
          R = VectorSearch({Post.emb}, qv, k, {distanceMap: @@d});
        }
        CREATE QUERY SearchIn(List<FLOAT> qv, INT k, Set<VERTEX> F) {
          Map<VERTEX, FLOAT> @@d;
          R = VectorSearch({Post.emb}, qv, k, {filter: F, distanceMap: @@d});
        }
        CREATE QUERY SearchBothIn(List<FLOAT> qv, INT k, Set<VERTEX> F) {
          Map<VERTEX, FLOAT> @@d;
          R = VectorSearch({Post.emb, Comment.emb}, qv, k, {filter: F, distanceMap: @@d});
        }
        CREATE QUERY SearchEf(List<FLOAT> qv, INT k, INT e) {
          R = VectorSearch({Post.emb}, qv, k, {ef: e});
        }
        """
    )
    yield db
    db.close()


@pytest.fixture(scope="module")
def server(db):
    with QueryServer(db, CONFIG, tenants=TENANTS) as server:
        yield server


@pytest.fixture(scope="module")
def tier(db):
    with ElasticTier(db, num_servers=2, config=CONFIG, tenants=TENANTS) as tier:
        yield tier


def bucket_below(db, types, bound) -> VertexSet:
    with db.snapshot() as snap:
        return VertexSet(
            (t, vid) for t in types for vid, row in snap.scan(t) if row["bucket"] < bound
        )


def visible(db, types) -> VertexSet:
    out = VertexSet()
    with db.snapshot() as snap:
        for t in types:
            out = out | db.access.visible_vertices("en_only", snap, t)
    return out


def answer(vset, distance_map: dict) -> tuple[list, dict]:
    return sorted(vset), distance_map


def by_vid(db, vertex_map: dict) -> dict:
    """A GSQL ``Map<VERTEX, FLOAT>`` re-keyed by ``(vertex_type, vid)``."""
    return {(v.vertex_type, db.vid_for(v.vertex_type, v.pk)): d for v, d in vertex_map.items()}


SCENARIOS = {
    # name: (vertex types, bucket bound of the VertexSet filter or None, role-scoped)
    "unfiltered": (["Post"], None, False),
    "filter-above-flip": (["Post"], 60, False),  # 32 + 28 rows: filtered HNSW in both segments
    "filter-across-flip": (["Post"], 38, False),  # 32 rows: HNSW; 6 rows: exact scan
    "filter-below-flip": (["Post"], 5, False),  # 5 rows: exact scan
    "two-attributes": (["Post", "Comment"], None, False),
    "two-attributes-filtered": (["Post", "Comment"], 40, False),
    "role": (["Post"], None, True),
    "role-filtered": (["Post", "Comment"], 50, True),
}


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_door_gives_the_same_answer(db, server, tier, name, seed):
    types, bound, scoped = SCENARIOS[name]
    attrs = [f"{t}.emb" for t in types]
    q = np.random.default_rng(seed).standard_normal(DIM).astype(np.float32)
    request = None if bound is None else bucket_below(db, types, bound)
    # What the request may match, as one VertexSet: its filter ∩ the role's rows.
    effective = request
    if scoped:
        effective = visible(db, types) if request is None else request & visible(db, types)
    tenant = "limited" if scoped else "default"
    role = "en_only" if scoped else "admin"

    dmap = MapAccum()
    want = answer(db.vector_search(attrs, q, K, filter=effective, distance_map=dmap), dmap.value)
    assert len(want[0]) == K
    if effective is not None:
        assert set(want[0]) <= effective.members()

    # GSQL VectorSearch()
    if effective is None and types == ["Post"]:
        r = db.gsql.run_query("SearchAll", qv=q.tolist(), k=K)
    else:
        proc = "SearchIn" if types == ["Post"] else "SearchBothIn"
        everything = effective if effective is not None else bucket_below(db, types, ROWS)
        r = db.gsql.run_query(proc, qv=q.tolist(), k=K, F=everything)
    assert answer(r.sets["R"], by_vid(db, r.accumulators["d"])) == want
    assert r.sets["R"].distances() == want[1]

    # GSQL ORDER BY VECTOR_DIST ... LIMIT k
    if effective is None and types == ["Post"]:
        r = db.gsql.run("SELECT t FROM (t:Post) ORDER BY VECTOR_DIST(t.emb, qv) LIMIT 5", qv=q.tolist())
    elif scoped and request is None:
        r = db.gsql.run(  # a row-predicate role is that predicate as a WHERE
            'SELECT t FROM (t:Post) WHERE t.lang == "en" ORDER BY VECTOR_DIST(t.emb, qv) LIMIT 5',
            qv=q.tolist(),
        )
    else:
        everything = effective if effective is not None else bucket_below(db, types, ROWS)
        r = db.gsql.run(
            "SELECT t FROM (t:C) ORDER BY VECTOR_DIST(t.emb, qv) LIMIT 5", qv=q.tolist(), C=everything
        )
    assert answer(r.result, r.result.distances()) == want

    # authorized_search (no distance map of its own)
    assert sorted(db.access.authorized_search(role, attrs, q, K, filter=request)) == want[0]

    # the served doors
    for door in (server, tier):
        dmap = MapAccum()
        got = door.search(attrs, q, K, tenant=tenant, filter=request, distance_map=dmap)
        assert answer(got, dmap.value) == want, type(door).__name__


# ----------------------------------------------------------------------------
# the holes the copies had
# ----------------------------------------------------------------------------


BAD_ARGS = {
    # name: (k, ef) -- each was truncated, read as the default, or searched
    "k-float": (1.5, None),
    "ef-zero": (K, 0),
    "ef-negative": (K, -3),
    "ef-float": (K, 2.5),
}


@pytest.mark.parametrize("name", BAD_ARGS)
def test_every_door_refuses_a_k_or_ef_that_is_not_a_positive_integer(db, server, tier, name):
    k, ef = BAD_ARGS[name]
    q = np.random.default_rng(7).standard_normal(DIM).astype(np.float32)
    attrs = ["Post.emb"]
    doors = {
        "direct": lambda: db.vector_search(attrs, q, k, ef=ef),
        "authorized": lambda: db.access.authorized_search("admin", attrs, q, k, ef=ef),
        "gsql": lambda: db.gsql.run_query("SearchEf", qv=q.tolist(), k=k, e=ef),
        "server": lambda: server.search(attrs, q, k, ef=ef),
        "tier": lambda: tier.search(attrs, q, k, ef=ef),
    }
    if ef is None:  # the batch has no ef; GSQL's LIMIT takes none
        doors["batch"] = lambda: db.vector_search_batch(attrs, np.stack([q] * 4), k)
        doors["gsql-limit"] = lambda: db.gsql.run(
            "SELECT t FROM (t:Post) ORDER BY VECTOR_DIST(t.emb, qv) LIMIT k", qv=q.tolist(), k=k
        )
    answered = []
    for door, search in doors.items():
        try:
            search()
        except VectorSearchError:
            continue
        answered.append(door)
    assert answered == []


def test_elastic_role_scoped_search_returns_only_authorized_rows(db, tier, rng):
    q = rng.standard_normal(DIM).astype(np.float32)
    got = tier.search(["Post.emb", "Comment.emb"], q, 10, tenant="limited")
    assert len(got) == 10
    assert got.members() <= visible(db, ["Post", "Comment"]).members()
    assert got == db.access.authorized_search("en_only", ["Post.emb", "Comment.emb"], q, 10)


def test_served_role_scoped_distance_map_is_the_admin_map_on_visible_rows(db, server, rng):
    q = rng.standard_normal(DIM).astype(np.float32)
    full = MapAccum()
    db.vector_search(["Post.emb"], q, ROWS, distance_map=full, ef=4 * ROWS)
    scoped = MapAccum()
    got = server.search(["Post.emb"], q, K, tenant="limited", distance_map=scoped)
    assert set(scoped.value) == got.members() and len(got) == K
    rows = visible(db, ["Post"]).members()
    nearest = sorted((m for m in full.value if m in rows), key=full.value.get)[:K]
    assert sorted(got) == sorted(nearest)
    for member, dist in scoped.value.items():
        assert dist == pytest.approx(full.value[member], rel=1e-5)


@pytest.mark.parametrize("sla", [{}, {"max_staleness": 0}, {"session_token": 0}])
def test_served_role_scoped_request_pins_one_snapshot(db, server, rng, monkeypatch, sla):
    pins = []
    pin = db.store.snapshot
    monkeypatch.setattr(db.store, "snapshot", lambda: pins.append(1) or pin())
    q = rng.standard_normal(DIM).astype(np.float32)
    assert len(server.search(["Post.emb"], q, K, tenant="limited", **sla)) == K
    assert len(pins) == 1


@pytest.mark.parametrize(
    "seed, sla", [(10, {}), (11, {"max_staleness": 0}), (12, {"session_token": 0})]
)
def test_served_admin_request_pins_one_snapshot_missed_or_cached(
    db, server, monkeypatch, seed, sla
):
    """The pin comes before the cache probe, so a hit costs one pin too."""
    pins = []
    pin = db.store.snapshot
    monkeypatch.setattr(db.store, "snapshot", lambda: pins.append(1) or pin())
    q = np.random.default_rng(seed).standard_normal(DIM).astype(np.float32)
    before = server.cache.stats()
    first = server.search(["Post.emb"], q, K, **sla)
    assert len(pins) == 1 and server.cache.stats()["misses"] == before["misses"] + 1
    assert server.search(["Post.emb"], q, K, **sla) == first
    assert len(pins) == 2 and server.cache.stats()["hits"] == before["hits"] + 1


def test_served_fused_batch_pins_one_snapshot(db, monkeypatch):
    config = ServeConfig(workers=1, enable_cache=False, batch_window_seconds=0.2)
    queries = np.random.default_rng(13).standard_normal((2 * MIN_FUSED, DIM)).astype(np.float32)
    telemetry = Telemetry()
    with use_telemetry(telemetry), QueryServer(db, config) as server:
        pins = []
        pin = db.store.snapshot
        monkeypatch.setattr(db.store, "snapshot", lambda: pins.append(1) or pin())
        futures = [server.submit_search(["Post.emb"], q, K) for q in queries]
        results = [future.result(timeout=30) for future in futures]
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["serve.fused_queries"] > 0
    assert len(pins) == counters["serve.batches"]
    for q, got in zip(queries, results):
        assert got == db.vector_search(["Post.emb"], q, K)


def test_a_wrong_dimension_query_is_refused_at_the_door_and_never_rides_a_batch(db):
    config = ServeConfig(workers=1, enable_cache=False, batch_window_seconds=0.2)
    queries = np.random.default_rng(14).standard_normal((MIN_FUSED + 2, DIM)).astype(np.float32)
    wide = np.random.default_rng(15).standard_normal(DIM + 1).astype(np.float32)
    with QueryServer(db, config) as server:
        futures = [server.submit_search(["Post.emb"], q, K) for q in queries[:2]]
        with pytest.raises(DimensionMismatchError):
            server.submit_search(["Post.emb"], wide, K)
        futures += [server.submit_search(["Post.emb"], q, K) for q in queries[2:]]
        results = [future.result(timeout=30) for future in futures]
    for q, got in zip(queries, results):
        assert got == db.vector_search(["Post.emb"], q, K)


def test_a_refused_tier_search_sends_no_sub_request(tier):
    q = np.random.default_rng(16).standard_normal(DIM).astype(np.float32)
    nan = q.copy()
    nan[0] = np.nan
    refused = [
        (nan, K, VectorSearchError),
        (np.append(q, 1.0), K, DimensionMismatchError),
        (q, 1.5, VectorSearchError),
    ]
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        for query, k, error in refused:
            with pytest.raises(error):
                tier.search(["Post.emb"], query, k)
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["elastic.routed_requests"] == len(refused)
    assert counters.get("elastic.shard_requests", 0) == 0


def test_gsql_multi_type_search_checks_compatibility(db, rng):
    mixed = VertexSet([("Post", v) for v in range(20)] + [("Note", v) for v in range(20)])
    q = rng.standard_normal(DIM).tolist()
    with db.snapshot() as snap, pytest.raises(EmbeddingCompatibilityError):
        db.vector_search(["Post.emb", "Note.emb"], q, 3, snapshot=snap)
    with pytest.raises(EmbeddingCompatibilityError):
        db.gsql.run("SELECT t FROM (t:C) ORDER BY VECTOR_DIST(t.emb, qv) LIMIT 3", qv=q, C=mixed)


def test_gsql_limit_over_a_set_without_the_attribute_still_checks_k_and_query():
    # A set of Tags (no embedding) or an empty set: no candidate type carries
    # the attribute, so there is nothing to search, but the arguments count.
    tags = TigerVectorDB()
    tags.schema.create_vertex_type("Tag", [Attribute("id", AttrType.INT, primary_key=True)])
    with tags.begin() as txn:
        for i in range(3):
            txn.upsert_vertex("Tag", i, {})
    text = "SELECT t FROM (t:C) ORDER BY VECTOR_DIST(t.emb, qv) LIMIT k"
    zero, nan = [0.0] * DIM, [float("nan")] * DIM
    for members in ([("Tag", tags.vid_for("Tag", i)) for i in range(3)], []):
        C = VertexSet(members)
        assert len(tags.gsql.run(text, qv=zero, k=3, C=C).result) == 0
        with pytest.raises(VectorSearchError):
            tags.gsql.run(text, qv=zero, k=1.5, C=C)
        with pytest.raises(VectorSearchError):
            tags.gsql.run(text, qv=nan, k=3, C=C)
    tags.close()


def test_gsql_filtered_block_checks_the_query_dimension(db, rng):
    short = rng.standard_normal(DIM - 3).tolist()
    for text in (
        "SELECT s FROM (s:Post) WHERE s.bucket < 10 ORDER BY VECTOR_DIST(s.emb, qv) LIMIT 5",
        "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.emb, qv) < 2.0",
    ):
        with pytest.raises(DimensionMismatchError):
            db.gsql.run(text, qv=short)


def test_served_gsql_from_a_role_scoped_tenant_fails_closed(db, server):
    text = "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.emb, qv) LIMIT 5"
    qv = [0.0] * DIM
    with pytest.raises(AuthorizationError):
        server.submit_gsql(text, tenant="limited", params={"qv": qv})
    with pytest.raises(AuthorizationError):
        server.run_gsql(text, tenant="limited", params={"qv": qv})
    assert len(server.run_gsql(text, params={"qv": qv}).result) == 5
