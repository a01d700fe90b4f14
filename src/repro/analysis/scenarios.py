"""Canned concurrency scenarios for the interleaving explorer.

Each scenario packages one cross-thread interaction the paper's
correctness story depends on (PAPER.md Sec. 4.3/4.5) into a
:class:`~repro.analysis.explore.Scenario`: deterministic setup, two
controlled workers, and a post-join invariant check.  ``MATRIX`` lists
the scenarios with the exploration strategy and *expected* outcome —
the intentionally-broken variants (the PR 4 cache race with its fix
disabled, the toy lost update) must be *found* within their budget,
which keeps the explorer itself honest in CI.

Scenario state must only share :class:`~.sanitizer.SanitizedLock`-guarded
structures between workers: the explorer can only deschedule a worker at
instrumented points, and a controlled worker blocking on an *uninstrumented*
primitive stalls the scheduler.  Production ``repro`` locks are instrumented
by ``patch_locks`` (run_schedule ensures it); toy scenarios instantiate
``SanitizedLock`` directly because ``repro/analysis/`` itself is exempt
from patching.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from .. import Attribute, AttrType, Metric, TigerVectorDB
from ..core.search import (
    SearchSpec,
    merge_sharded_topk,
    vector_search_merged,
    vector_search_sharded,
)
from ..errors import SegmentOwnershipError
from ..core.service import EmbeddingStore
from ..index.hnsw import HNSWIndex
from ..index.pq import PQCodebook, PQCodes, PQSearchConfig
from ..tier import demote_segment
from ..serve.cache import ResultCache
from ..serve.batcher import MicroBatcher
from ..serve.tenancy import TenantRegistry, WeightedFairQueue
from .explore import Scenario
from .hooks import schedule_point
from .sanitizer import SanitizedLock

__all__ = ["MATRIX", "ScenarioSpec", "scenario_names", "make_scenario"]


class _Box:
    """Attribute bag for scenario state."""


# --------------------------------------------------------------------------
# toy lost update — the explorer's own regression fixture
# --------------------------------------------------------------------------


class LostUpdateScenario(Scenario):
    """Two workers increment a shared counter; the broken variant reads the
    current value *outside* the lock (classic lost update)."""

    threads = 2
    description = "toy read-modify-write; broken variant reads outside the lock"

    def __init__(self, guarded: bool = False):
        self.guarded = guarded
        self.name = "lost-update-guarded" if guarded else "lost-update"

    def setup(self):
        state = _Box()
        state.lock = SanitizedLock(name="toy.counter.lock")
        state.value = 0
        return state

    def worker(self, state, index: int) -> None:
        if self.guarded:
            with state.lock:
                observed = state.value
                schedule_point("toy.read")
                state.value = observed + 1
        else:
            observed = state.value
            schedule_point("toy.read")
            with state.lock:
                state.value = observed + 1

    def check(self, state) -> None:
        assert state.value == self.threads, (
            f"lost update: {self.threads} increments produced {state.value}"
        )


# --------------------------------------------------------------------------
# commit vs cached search — the PR 4 watermark/commit cache-poisoning race
# --------------------------------------------------------------------------

_ATTR = "Doc.vec"
_DIM = 4
_K = 2


def _make_doc_db(num_docs: int = 6) -> TigerVectorDB:
    db = TigerVectorDB(segment_size=8)
    db.schema.create_vertex_type(
        "Doc", [Attribute("id", AttrType.INT, primary_key=True)]
    )
    db.schema.add_embedding_attribute(
        "Doc", "vec", dimension=_DIM, model="GPT4", metric=Metric.L2
    )
    # Well-separated deterministic vectors: doc i sits at 10*(i+1) on axis
    # i % dim, so every pairwise distance is large and ties are impossible.
    with db.begin() as txn:
        for i in range(num_docs):
            txn.upsert_vertex("Doc", i, {})
            vec = np.zeros(_DIM, dtype=np.float32)
            vec[i % _DIM] = 10.0 * (i + 1)
            txn.set_embedding("Doc", i, "vec", vec)
    return db


def _search(db, query: np.ndarray, k: int = _K) -> tuple:
    with db.snapshot() as snapshot:
        return tuple(vector_search_merged(db.service, snapshot, [_ATTR], query, k))


class CommitVsCachedSearch(Scenario):
    """A commit racing a cache-filling search worker.

    Worker 0 commits a new embedding for doc 0 that becomes the query's
    nearest neighbor.  Worker 1 mimics the serve worker's cache path
    (``QueryServer._execute_vector`` through ``freshness_gate``): read
    watermarks, pin a snapshot, and only at lag 0 probe the cache, search
    and fill.

    With ``validate=False`` (the lag check dropped) there is an
    interleaving — commit past its embedding hook but before publishing
    ``last_tid`` — where worker 1 reads a post-commit watermark, pins a
    pre-commit snapshot, and caches the stale top-k under the post-commit
    key.  ``check`` then finds a poisoned hit for a fresh watermark.
    With ``validate=True`` (the shipped server logic: serve uncached, the
    cache neither probed nor filled, when the watermark lag is positive)
    every interleaving must pass.
    """

    threads = 2
    description = "commit vs watermark-keyed cached search (PR 4 race)"

    def __init__(self, validate: bool = True):
        self.validate = validate
        self.name = (
            "commit-vs-cached-search"
            if validate
            else "commit-vs-cached-search-unvalidated"
        )

    def setup(self):
        state = _Box()
        state.db = _make_doc_db()
        state.db.vacuum()
        state.cache = ResultCache()
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[0] = 100.0
        state.spec = SearchSpec(state.db.service, [_ATTR], state.query, _K)
        state.new_vector = np.zeros(_DIM, dtype=np.float32)
        state.new_vector[0] = 99.0  # post-commit nearest neighbor for query
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            with state.db.begin() as txn:
                txn.set_embedding("Doc", 0, "vec", state.new_vector)
            return
        # Serve-worker cache path (see QueryServer._execute_vector).
        store = state.db.service.store("Doc", "vec")
        mark = store.watermark()
        with state.db.snapshot() as snapshot:
            # lag == 0: the snapshot covers the watermark read before it.
            lag_zero = EmbeddingStore.watermark_tid(mark) <= snapshot.tid
            cached = lag_zero or not self.validate
            key = state.spec.cache_key((mark,))
            if cached and state.cache.get(key) is not None:
                return
            top = tuple(
                vector_search_merged(
                    state.db.service, snapshot, [_ATTR], state.query, _K
                )
            )
            if cached:  # else commit mid-publication: serve without caching
                state.cache.put(key, top)

    def check(self, state) -> None:
        store = state.db.service.store("Doc", "vec")
        fresh_mark = store.watermark()
        key = state.spec.cache_key((fresh_mark,))
        hit = state.cache.get(key)
        if hit is None:
            return
        truth = _search(state.db, state.query)
        hit_ids = [(vtype, vid) for _, vtype, vid in hit]
        truth_ids = [(vtype, vid) for _, vtype, vid in truth]
        assert hit_ids == truth_ids, (
            "cache poisoned: stale top-k cached under a post-commit "
            f"watermark key (cached {hit_ids}, fresh snapshot {truth_ids})"
        )

    def teardown(self, state) -> None:
        state.db.close()


# --------------------------------------------------------------------------
# read-your-writes session token vs commit publish
# --------------------------------------------------------------------------


class SessionTokenVsCommitPublish(Scenario):
    """A session token racing the commit that issued it.

    Worker 0 commits a new nearest-neighbor embedding for doc 0.  Worker 1
    models a client that just committed: it derives a session token from
    the store watermark — the embedding hook publishes the commit's TID
    there *before* ``GraphStore.last_tid`` — then asks to be served
    read-your-writes.

    With ``validate=False`` (no token check) there is an interleaving —
    token read post-hook, snapshot pinned pre-``last_tid`` — where the
    "serving snapshot" predates the very commit the token names, and the
    client reads a top-k missing its own write.  With ``validate=True``
    (the shipped ``freshness_gate`` logic: only serve from a snapshot
    whose TID covers the token, bounded retries, fail typed otherwise)
    every interleaving must pass.
    """

    threads = 2
    description = "read-your-writes token vs commit publish window"

    #: Mirrors the server's bounded staleness_wait: give up (fail typed)
    #: rather than spin forever inside an adversarial schedule.
    _MAX_RETRIES = 8

    def __init__(self, validate: bool = True):
        self.validate = validate
        self.name = (
            "session-token-vs-commit"
            if validate
            else "session-token-vs-commit-unvalidated"
        )

    def setup(self):
        state = _Box()
        state.db = _make_doc_db()
        state.db.vacuum()
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[0] = 100.0
        state.new_vector = np.zeros(_DIM, dtype=np.float32)
        state.new_vector[0] = 99.0  # post-commit nearest neighbor for query
        state.token = None
        state.served = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            with state.db.begin() as txn:
                txn.set_embedding("Doc", 0, "vec", state.new_vector)
            return
        store = state.db.service.store("Doc", "vec")
        state.token = EmbeddingStore.watermark_tid(store.watermark())
        for _ in range(self._MAX_RETRIES):
            with state.db.snapshot() as snapshot:
                if not self.validate or snapshot.tid >= state.token:
                    state.served = [
                        (vtype, vid)
                        for _, vtype, vid in vector_search_merged(
                            state.db.service, snapshot, [_ATTR], state.query, _K
                        )
                    ]
                    return
            schedule_point("serve.sla.retry")
        # Retry budget exhausted with the token still uncovered: the server
        # fails this request typed (StalenessBoundError), never stale.

    def check(self, state) -> None:
        if state.served is None:
            return
        commit_tid = state.db.store.last_tid
        if state.token is None or state.token < commit_tid:
            return  # token predates the commit: no read-your-writes claim
        truth = [
            (vtype, vid) for _, vtype, vid in _search(state.db, state.query)
        ]
        assert state.served == truth, (
            f"read-your-writes violated: token {state.token} was served "
            f"stale top-k {state.served} != {truth}"
        )

    def teardown(self, state) -> None:
        state.db.close()


# --------------------------------------------------------------------------
# vacuum delta_merge vs search
# --------------------------------------------------------------------------


class VacuumVsSearch(Scenario):
    """A full vacuum (delta merge + index merge) racing a snapshot search.

    The two-stage vacuum moves committed deltas into segment snapshots and
    rebuilds indexes, but never changes logical content: whatever snapshot
    the reader pins, its top-k ids must equal the pre-vacuum ground truth.
    """

    name = "vacuum-vs-search"
    threads = 2
    description = "two-stage vacuum vs snapshot-pinned search"

    def setup(self):
        state = _Box()
        state.db = _make_doc_db(num_docs=10)  # deltas left unmerged
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[1] = 25.0
        state.truth_ids = [
            (vtype, vid) for _, vtype, vid in _search(state.db, state.query, k=3)
        ]
        state.result_ids = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            state.db.vacuum()
            return
        with state.db.snapshot() as snapshot:
            top = vector_search_merged(
                state.db.service, snapshot, [_ATTR], state.query, 3
            )
        state.result_ids = [(vtype, vid) for _, vtype, vid in top]

    def check(self, state) -> None:
        assert state.result_ids == state.truth_ids, (
            "vacuum changed logical search content: "
            f"{state.result_ids} != {state.truth_ids}"
        )

    def teardown(self, state) -> None:
        state.db.close()


# --------------------------------------------------------------------------
# tier demotion vs pinned-snapshot search
# --------------------------------------------------------------------------


class TierDemoteVsSearch(Scenario):
    """A hot→cold tier demotion racing a snapshot-pinned search.

    Worker 0 demotes the only segment to the cold (PQ) tier; worker 1 runs
    a top-k search.  Demotion never changes logical content, and with the
    default rerank inflation every cold search here reranks all rows
    exactly, so whatever snapshot the reader pins — the hot original, the
    retired hot twin, or the published cold twin — the top-k ids must
    equal the pre-demotion ground truth.

    With ``validate=False`` the demotion takes the tempting shortcut of
    mutating the live snapshot in place (clear the index, then attach the
    codes).  Between those two writes the snapshot is *half-demoted* —
    marked cold with neither an index nor codes — and a search landing at
    the ``tier.publish`` point observes it (the scan-kernel guard raises).
    With ``validate=True`` (the shipped two-phase build-aside +
    same-tid ``install_snapshot`` publish) every interleaving must pass.
    """

    threads = 2
    description = "tier demotion vs snapshot-pinned search (DESIGN §12)"

    def __init__(self, validate: bool = True):
        self.validate = validate
        self.name = (
            "tier-demote-vs-search" if validate else "tier-demote-vs-search-unvalidated"
        )

    def setup(self):
        state = _Box()
        state.db = _make_doc_db()
        state.db.vacuum()  # fold deltas in so the segment is sealed
        state.store = state.db.service.store("Doc", "vec")
        state.config = PQSearchConfig(m=2, train_iterations=4, seed=5)
        state.store.pq_config = state.config
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[0] = 100.0
        state.truth_ids = [
            (vtype, vid) for _, vtype, vid in _search(state.db, state.query)
        ]
        state.result_ids = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            segment = state.store.segment(0)
            if self.validate:
                demote_segment(state.store, segment, state.config)
                return
            # The in-place shortcut: publish the transition by mutating the
            # snapshot readers already hold, no MVCC twin.
            snap = segment.current_snapshot()
            vectors = np.asarray(snap.vectors)
            codebook = PQCodebook.train(
                vectors[snap.present], 2, metric=Metric.L2, iterations=4, seed=5
            )
            pq = PQCodes.from_vectors(codebook, vectors, Metric.L2)
            snap.tier = "cold"
            snap.index = None
            snap._kernel = None
            schedule_point("tier.publish")
            snap.pq = pq
            return
        state.result_ids = [
            (vtype, vid) for _, vtype, vid in _search(state.db, state.query)
        ]

    def check(self, state) -> None:
        assert state.result_ids == state.truth_ids, (
            "tier demotion changed logical search content: "
            f"{state.result_ids} != {state.truth_ids}"
        )

    def teardown(self, state) -> None:
        state.db.close()


# --------------------------------------------------------------------------
# elastic rebalance vs pinned search
# --------------------------------------------------------------------------


class RebalanceVsSearch(Scenario):
    """A segment-group handoff racing a routed, snapshot-pinned search.

    Models the elastic tier's hot path (``repro.elastic``): worker 1 is a
    router thread — gate past a draining key, take an in-flight ref,
    resolve owners, pin a snapshot, then (after the shard-side ownership
    re-check) run the sharded search and merge.  Worker 0 moves group 1
    between servers.

    With ``validate=True`` the mover follows the shipped handoff
    protocol: close the gate, *wait for the in-flight count to drain to
    zero*, then transfer — so the shard-side re-check can never observe
    a revocation mid-flight, and every interleaving must produce either
    the exact merged top-k or a clean gated refusal.  With
    ``validate=False`` the mover revokes immediately (handoff without
    the watermark drain): an interleaving where the search has routed
    and pinned but not yet re-checked observes the revocation and raises
    :class:`SegmentOwnershipError` — the planted bug the explorer must
    find within budget.
    """

    threads = 2
    description = "segment-group handoff vs routed pinned search (DESIGN §13)"

    #: Bounded gate/drain retries, mirroring the tier's bounded waits:
    #: give up cleanly rather than spin forever in an adversarial schedule.
    _MAX_RETRIES = 8

    def __init__(self, validate: bool = True):
        self.validate = validate
        self.name = (
            "rebalance-vs-search" if validate else "rebalance-vs-search-unvalidated"
        )

    def setup(self):
        state = _Box()
        state.db = _make_doc_db(num_docs=10)  # 2 segments -> groups {0, 1}
        state.db.vacuum()
        state.lock = SanitizedLock(name="elastic.ownership.lock")
        state.owner = {0: "a", 1: "a"}  # router's entry map: group -> server
        state.served_by = {"a": {0, 1}, "b": set()}  # shard ownership sets
        state.draining = False
        state.inflight = 0
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[1] = 25.0
        state.truth_ids = [
            (vtype, vid) for _, vtype, vid in _search(state.db, state.query, k=3)
        ]
        state.result_ids = None
        return state

    def _move(self, state) -> None:
        if not self.validate:
            # Handoff without the drain: transfer under a live in-flight ref.
            with state.lock:
                state.served_by["a"].discard(1)
                state.served_by["b"].add(1)
                state.owner[1] = "b"
            return
        with state.lock:
            state.draining = True
        for _ in range(self._MAX_RETRIES):
            with state.lock:
                if state.inflight == 0:
                    state.served_by["a"].discard(1)
                    state.served_by["b"].add(1)
                    state.owner[1] = "b"
                    state.draining = False
                    return
            schedule_point("elastic.drain.wait")
        with state.lock:
            state.draining = False  # drain budget exhausted: abort the move

    def worker(self, state, index: int) -> None:
        if index == 0:
            self._move(state)
            return
        # Router thread: gate, acquire, route, pin, execute, merge.
        for _ in range(self._MAX_RETRIES):
            with state.lock:
                if not state.draining:
                    routed = dict(state.owner)
                    state.inflight += 1
                    break
            schedule_point("elastic.gate.wait")
        else:
            return  # gated out for the whole budget: clean refusal
        try:
            assignment: dict[str, list[int]] = {}
            for group, server in routed.items():
                assignment.setdefault(server, []).append(group)
            with state.db.snapshot() as snapshot:
                schedule_point("elastic.shard.pinned")
                parts = []
                for server, groups in sorted(assignment.items()):
                    # The shard-side execution-time ownership re-check.
                    with state.lock:
                        missing = [
                            g for g in groups if g not in state.served_by[server]
                        ]
                    if missing:
                        raise SegmentOwnershipError(
                            f"server '{server}' lost group {missing[0]} "
                            f"mid-flight (handoff did not drain)",
                            group=missing[0],
                        )
                    parts.append(
                        vector_search_sharded(
                            state.db.service,
                            snapshot,
                            [_ATTR],
                            state.query,
                            3,
                            groups=frozenset(groups),
                            group_size=1,
                        )
                    )
            merged = merge_sharded_topk(parts, 3)
            state.result_ids = [(vtype, vid) for _, vtype, vid in merged]
        finally:
            with state.lock:
                state.inflight -= 1

    def check(self, state) -> None:
        if state.result_ids is None:
            return  # cleanly refused at the gate: allowed, never wrong
        assert state.result_ids == state.truth_ids, (
            "handoff changed routed search content: "
            f"{state.result_ids} != {state.truth_ids}"
        )

    def teardown(self, state) -> None:
        state.db.close()


# --------------------------------------------------------------------------
# concurrent HNSW insert vs save
# --------------------------------------------------------------------------


class HnswInsertVsSave(Scenario):
    """Inserts racing a persistence snapshot.

    ``save`` deep-copies under ``_write_lock``; whatever interleaving
    runs, the saved file must load into a structurally valid index whose
    count is one of the states the insert sequence passed through.
    """

    name = "hnsw-insert-vs-save"
    threads = 2
    description = "HNSW update_items vs save/load round-trip"

    def setup(self):
        state = _Box()
        state.index = HNSWIndex(dim=_DIM, M=4, ef_construction=16, seed=7)
        rng = np.random.default_rng(11)
        base = rng.standard_normal((6, _DIM)).astype(np.float32)
        state.index.update_items(range(6), base)
        state.extra = rng.standard_normal((3, _DIM)).astype(np.float32)
        state.dir = Path(tempfile.mkdtemp(prefix="repro-explore-"))
        state.path = state.dir / "hnsw.idx"
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            state.index.update_items([6, 7, 8], state.extra)
            return
        state.index.save(state.path)

    def check(self, state) -> None:
        loaded = HNSWIndex.load(state.path)
        count = loaded.stats.num_vectors
        assert 6 <= count <= 9, f"torn save: loaded count {count}"
        result = loaded.topk_search(state.extra[0], k=3)
        assert len(result.ids) == 3

    def teardown(self, state) -> None:
        shutil.rmtree(state.dir, ignore_errors=True)


# --------------------------------------------------------------------------
# a fresh HNSW batch built into a live index vs a lock-free search
# --------------------------------------------------------------------------


class HnswFreshBatchVsSearch(Scenario):
    """A batch of ids the index has never seen, built into it while a
    lock-free ``topk_search`` runs.

    Worker 0 builds the batch; worker 1 searches at one of the new vectors.
    Whatever the interleaving, every id returned must be live and its
    distance must be the true distance to that id's stored vector.  The
    existing rows sit far on the other side of the origin from the batch,
    so a new row read before its kernel row is written (all zeros) would
    rank first, at the wrong distance.

    With ``validate=True`` the build is the shipped one: vectors, kernel
    rows and ids first, then the lists, then ``_count`` and the entry point
    (``hnsw.publish`` sits just before those).  With ``validate=False`` it
    takes the shortcut of building aside on a copy and publishing the
    copy's graph and count into the live index before its kernel rows: a
    search landing at ``hnsw.publish`` walks new rows it reads as zeros.
    """

    threads = 2
    description = "fresh HNSW batch built into a live index vs a lock-free search"

    def __init__(self, validate: bool = True):
        self.validate = validate
        self.name = "hnsw-fresh-batch-vs-search" + ("" if validate else "-count-first")

    def setup(self):
        state = _Box()
        rng = np.random.default_rng(17)
        state.index = HNSWIndex(dim=_DIM, M=4, ef_construction=16, seed=7)
        old = rng.standard_normal((8, _DIM)) - 6.0
        state.index.update_items(range(8), old.astype(np.float32))
        state.fresh = (rng.standard_normal((6, _DIM)) + 6.0).astype(np.float32)
        state.query = state.fresh[0]
        state.found = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 1:
            state.found = state.index.topk_search(state.query, 4, ef=16)
            return
        ids = list(range(100, 106))
        if self.validate:
            state.index.update_items(ids, state.fresh)
            return
        built = state.index.clone()
        built.update_items(ids, state.fresh)
        live = state.index
        for name in ("_ids", "_id_to_row", "_levels", "_links0", "_links0_cnt", "_links_upper"):
            setattr(live, name, getattr(built, name))
        live._count = built._count
        live._entry_point, live._max_level = built._entry_point, built._max_level
        schedule_point("hnsw.publish")
        live._vectors[: built._count] = built._vectors[: built._count]
        live._kernel.set_rows(slice(0, built._count), live._vectors[: built._count])

    def check(self, state) -> None:
        result = state.found
        assert len(result.ids), "search over a live index returned nothing"
        for ext_id, distance in zip(result.ids.tolist(), result.distances.tolist()):
            assert ext_id in state.index, f"returned id {ext_id} is not live"
            true = float(np.sum((state.index.get_embedding(ext_id) - state.query) ** 2))
            assert abs(distance - true) <= 1e-3 * max(1.0, true), (
                f"id {ext_id} returned at distance {distance}, its vector is at {true}"
            )


# --------------------------------------------------------------------------
# index merge (row reuse) vs a search pinned on the older snapshot
# --------------------------------------------------------------------------


class IndexMergeRowReuseVsPinnedSearch(Scenario):
    """The index merge rewriting a row while an older reader searches.

    An HNSW update reuses its id's row — unlink, repair the in-neighbours,
    reinsert in place — so the graph it runs on must be one no reader can
    see.  Worker 0 folds a committed update of doc 0 into the index; worker
    1 searches on a snapshot pinned *before* that update, at doc 0's old
    position, and must get doc 0 at distance zero whatever the interleaving.

    With ``validate=True`` the merge is the shipped one
    (``build_next_snapshot`` rewrites a private clone, ``install_snapshot``
    publishes it).  With ``validate=False`` it takes the shortcut of
    updating the *current* snapshot's index, the one the pinned reader is
    walking: once the rewrite has run, the old vector is gone from under it.
    """

    threads = 2
    description = "index merge rewriting a row vs a search pinned on the older snapshot"

    def __init__(self, validate: bool = True):
        self.validate = validate
        self.name = "index-merge-row-reuse-vs-pinned-search" + ("" if validate else "-inplace")

    def setup(self):
        state = _Box()
        state.db = _make_doc_db()
        state.db.vacuum()  # every doc is a row of the index
        state.store = state.db.service.store("Doc", "vec")
        state.store.bf_threshold = 0  # walk the graph, not the raw rows
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[0] = 10.0  # doc 0, exactly
        state.pinned = state.db.snapshot()
        state.moved = np.full(_DIM, 500.0, dtype=np.float32)
        with state.db.begin() as txn:
            txn.set_embedding("Doc", 0, "vec", state.moved)
        state.found = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            if self.validate:
                state.db.vacuum()
            else:
                current = state.store.segment(0).current_snapshot()
                current.index.update_items([0], state.moved.reshape(1, -1))
            return
        state.found = vector_search_merged(
            state.db.service, state.pinned, [_ATTR], state.query, 1
        )

    def check(self, state) -> None:
        ((distance, _, vid),) = state.found
        assert vid == state.db.vid_for("Doc", 0) and distance < 1e-6, (
            f"pinned reader lost the pre-update row: got vid {vid} at {distance}"
        )

    def teardown(self, state) -> None:
        state.pinned.release()
        state.db.close()


# --------------------------------------------------------------------------
# batcher enqueue vs window close
# --------------------------------------------------------------------------


class _BatchReq:
    """Minimal batchable request (compare serve/server._Request)."""

    def __init__(self, rid: int):
        self.rid = rid

    def batch_key(self):
        return (_ATTR, _K, None)


class BatcherVsWindowClose(Scenario):
    """Enqueues racing a leader's batch-collection window.

    Whatever the interleaving, conservation must hold: every request ends
    up either in the collected batch or still queued — none lost, none
    duplicated — and the batch never exceeds ``max_batch``.
    """

    name = "batcher-vs-window"
    threads = 2
    description = "batcher enqueue vs collection-window close"

    def setup(self):
        state = _Box()
        state.queue = WeightedFairQueue(TenantRegistry())
        state.batcher = MicroBatcher(state.queue, window_seconds=0.2, max_batch=4)
        state.requests = [_BatchReq(i) for i in range(4)]
        state.batch = []
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            for request in state.requests:
                state.queue.put(request, "default")
                schedule_point("batcher.enqueued")
            return
        leader = state.queue.take(timeout=0.05)
        if leader is None:
            return
        state.batch = state.batcher.collect(leader)

    def check(self, state) -> None:
        drained = state.queue.drain_matching(lambda _request: True, 16)
        seen = [r.rid for r in state.batch] + [r.rid for r in drained]
        assert sorted(seen) == [r.rid for r in state.requests], (
            f"requests lost or duplicated across batch/queue: {sorted(seen)}"
        )
        assert len(state.batch) <= state.batcher.max_batch


# --------------------------------------------------------------------------
# the CI matrix
# --------------------------------------------------------------------------


class ScenarioSpec:
    """One row of the exploration matrix.

    ``strategy`` is ``("exhaustive", max_decisions, max_schedules)`` or
    ``("pct", num_seeds)`` / ``("random", num_seeds)``; ``expect_failure``
    flips the CI assertion — broken-by-construction scenarios must be
    *found* within budget, fixed ones must stay clean.
    """

    def __init__(self, factory, strategy: tuple, expect_failure: bool):
        self.factory = factory
        self.strategy = strategy
        self.expect_failure = expect_failure
        self.name = factory().name


MATRIX: list[ScenarioSpec] = [
    ScenarioSpec(lambda: LostUpdateScenario(guarded=False), ("exhaustive", 8, 64), True),
    ScenarioSpec(lambda: LostUpdateScenario(guarded=True), ("exhaustive", 8, 64), False),
    ScenarioSpec(lambda: CommitVsCachedSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: CommitVsCachedSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(
        lambda: SessionTokenVsCommitPublish(validate=False), ("pct", 256), True
    ),
    ScenarioSpec(
        lambda: SessionTokenVsCommitPublish(validate=True), ("pct", 64), False
    ),
    ScenarioSpec(lambda: VacuumVsSearch(), ("pct", 12), False),
    ScenarioSpec(lambda: TierDemoteVsSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: TierDemoteVsSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(lambda: RebalanceVsSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: RebalanceVsSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(lambda: HnswInsertVsSave(), ("pct", 12), False),
    ScenarioSpec(lambda: HnswFreshBatchVsSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: HnswFreshBatchVsSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(
        lambda: IndexMergeRowReuseVsPinnedSearch(validate=False), ("pct", 256), True
    ),
    ScenarioSpec(
        lambda: IndexMergeRowReuseVsPinnedSearch(validate=True), ("pct", 64), False
    ),
    ScenarioSpec(lambda: BatcherVsWindowClose(), ("random", 8), False),
]


def scenario_names() -> list[str]:
    return [spec.name for spec in MATRIX]


def make_scenario(name: str) -> Scenario:
    for spec in MATRIX:
        if spec.name == name:
            return spec.factory()
    raise KeyError(f"unknown scenario {name!r} (known: {', '.join(scenario_names())})")
