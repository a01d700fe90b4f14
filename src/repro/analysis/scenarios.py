"""Canned concurrency scenarios for the interleaving explorer.

Each scenario packages one cross-thread interaction the paper's
correctness story depends on (PAPER.md Sec. 4.3/4.5) into a
:class:`~repro.analysis.explore.Scenario`: deterministic setup, two
controlled workers, and a post-join invariant check.  ``MATRIX`` lists
the scenarios with the exploration strategy and *expected* outcome —
the intentionally-broken variants must be *found* within their budget,
which keeps the explorer itself honest in CI.

A validated serve or tier row calls the shipped entry point
(``QueryServer._execute_vector``, ``ElasticTier.search`` / ``rebalance`` /
``remove_server``, the server's queue and ``MicroBatcher``), never a copy
of its logic, and its ``-unvalidated`` twin plants the defect by patching
shipped code inside the scenario (DESIGN §6.3 has the table).

Scenario state must only share instrumented structures between workers:
the explorer can only deschedule a worker at instrumented points (locks,
conditions, ``schedule_point``), and a controlled worker blocking on an
*uninstrumented* primitive stalls the scheduler.  Production ``repro``
locks and conditions are instrumented by ``patch_locks`` (run_schedule
ensures it); toy scenarios instantiate ``SanitizedLock`` directly because
``repro/analysis/`` itself is exempt from patching.  A row must also be
deterministic modulo schedule: no outcome may hinge on the wall clock.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np

from .. import Attribute, AttrType, Metric, TigerVectorDB
from ..core.search import SearchSpec, vector_search_merged
from ..core.service import EmbeddingStore
from ..elastic import ElasticTier, ShardServer
from ..errors import SegmentOwnershipError, StalenessBoundError
from ..index.hnsw import HNSWIndex
from ..index.pq import PQCodebook, PQCodes, PQSearchConfig
from ..serve import server as server_module
from ..serve.server import (
    QueryServer,
    ServeConfig,
    ServeFuture,
    VectorRequest,
    freshness_gate,
)
from ..tier import demote_segment
from .explore import Scenario
from .hooks import schedule_point
from .sanitizer import SanitizedLock

__all__ = ["MATRIX", "ScenarioSpec", "scenario_names", "make_scenario"]


class _Box:
    """Attribute bag for scenario state."""


class _Twinned(Scenario):
    """A validated row named ``row``; ``validate=False`` builds its twin,
    named ``row + twin``, which plants the defect."""

    twin = "-unvalidated"

    def __init__(self, validate: bool = True):
        self.validate = validate
        self.name = self.row + ("" if validate else self.twin)


# --------------------------------------------------------------------------
# toy lost update — the explorer's own regression fixture
# --------------------------------------------------------------------------


class LostUpdateScenario(Scenario):
    """Two workers increment a shared counter; the broken variant reads the
    current value *outside* the lock (classic lost update)."""

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
# served search vs commit publish — the shipped serve worker's batch body
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


@contextmanager
def _gate_reporting_lag_zero(db, spec, wait, deadline):
    """``freshness_gate`` that reports lag 0 whatever snapshot it pinned."""
    with freshness_gate(db, spec, wait, deadline) as (snapshot, marks, _lag):
        yield snapshot, marks, 0


def _request(server: QueryServer, spec: SearchSpec, submitted_at=0.0) -> VectorRequest:
    """The request ``server.submit_search`` would queue for ``spec``."""
    tenant = server.registry.get("default")
    return VectorRequest(tenant, ServeFuture(), submitted_at, deadline=None, spec=spec)


class _ServedSearchVsCommit(_Twinned):
    """Worker 0 commits a new embedding for doc 0 that becomes the query's
    nearest neighbor; worker 1 runs ``QueryServer._execute_vector``, the
    serve worker's batch body, on a server that was never started.

    The window both rows guard: a commit bumps its store watermark (the
    embedding hook) before it publishes ``GraphStore.last_tid``, so a search
    in between reads a post-commit watermark and pins a pre-commit snapshot.
    """

    config = ServeConfig()

    def setup(self):
        state = _Box()
        state.db = _make_doc_db()
        state.db.vacuum()
        state.server = QueryServer(state.db, self.config)
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[0] = 100.0
        state.new_vector = np.zeros(_DIM, dtype=np.float32)
        state.new_vector[0] = 99.0  # post-commit nearest neighbor for query
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            with state.db.begin() as txn:
                txn.set_embedding("Doc", 0, "vec", state.new_vector)
            return
        self.search(state)

    def teardown(self, state) -> None:
        state.db.close()


class CommitVsCachedSearch(_ServedSearchVsCommit):
    """The served search fills the cache.  ``freshness_gate``'s ``lag == 0``
    is the cache rule: a search in the commit's window is served uncached,
    so every interleaving must pass.  The ``-unvalidated`` twin swaps
    ``repro.serve.server.freshness_gate`` for one that always reports lag 0:
    the window's stale top-k is cached under the post-commit key, and
    ``check`` finds the poisoned hit.
    """

    row = "commit-vs-cached-search"

    def search(self, state) -> None:
        spec = SearchSpec(state.db.service, [_ATTR], state.query, _K)
        state.request = _request(state.server, spec)
        with nullcontext() if self.validate else mock.patch.object(
            server_module, "freshness_gate", _gate_reporting_lag_zero
        ):
            state.server._execute_vector([state.request])

    def check(self, state) -> None:
        store = state.db.service.store("Doc", "vec")
        key = state.request.spec.cache_key((store.watermark(),))
        hit = state.server.cache.get("default", key)
        if hit is None:
            return
        truth = _search(state.db, state.query)
        hit_ids = [(vtype, vid) for _, vtype, vid in hit]
        truth_ids = [(vtype, vid) for _, vtype, vid in truth]
        assert hit_ids == truth_ids, (
            "cache poisoned: stale top-k cached under a post-commit "
            f"watermark key (cached {hit_ids}, fresh snapshot {truth_ids})"
        )


class SessionTokenVsCommitPublish(_ServedSearchVsCommit):
    """The served search carries a read-your-writes session token read from
    the store watermark, which names the commit as soon as its embedding
    hook has run.  ``freshness_gate`` serves only a snapshot covering the
    token; with ``staleness_wait=0`` it fails typed at once otherwise, so no
    wall-clock wait decides an outcome.  The ``-unvalidated`` twin builds
    its spec without the token: the window's snapshot predates the very
    commit the token names, and the client reads a top-1 missing its write.
    ``k`` is 1 because a ``VertexSet`` does not keep rank order.
    """

    row = "session-token-vs-commit"
    config = ServeConfig(staleness_wait=0)

    def search(self, state) -> None:
        store = state.db.service.store("Doc", "vec")
        state.token = EmbeddingStore.watermark_tid(store.watermark())
        spec = SearchSpec(
            state.db.service, [_ATTR], state.query, 1,
            session_token=state.token if self.validate else None,
        )
        state.request = _request(state.server, spec)
        state.server._execute_vector([state.request])

    def check(self, state) -> None:
        future = state.request.future
        if isinstance(future.exception(), StalenessBoundError):
            return  # refused typed: allowed, never stale
        served = list(future.result())
        if state.token < state.db.store.last_tid:
            return  # token predates the commit: no read-your-writes claim
        truth = [(vtype, vid) for _, vtype, vid in _search(state.db, state.query, k=1)]
        assert served == truth, (
            f"read-your-writes violated: token {state.token} was served "
            f"stale top-1 {served} != {truth}"
        )


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
        top = _search(state.db, state.query, k=3)
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


class TierDemoteVsSearch(_Twinned):
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

    row = "tier-demote-vs-search"

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
# ownership changes vs a routed search — the shipped ElasticTier
# --------------------------------------------------------------------------


class InlineTransport(ShardServer):
    """A shard that starts no worker: each sub-request runs the shipped
    ``_execute_batch`` on the submitting (controlled router) thread, and
    every ``SegmentOwnershipError`` it answers lands in ``refusals``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refusals: list[SegmentOwnershipError] = []

    def start(self) -> "InlineTransport":
        with self._lifecycle_lock:
            self._running = True
        return self

    def _submit(self, request) -> ServeFuture:
        self._execute_batch([request])
        error = request.future.exception()
        if isinstance(error, SegmentOwnershipError):
            self.refusals.append(error)
        return request.future


def _acquire_holding_no_ref(tier: ElasticTier):
    """``tier._acquire`` that passes the gate but keeps no in-flight ref."""
    acquire = tier._acquire

    def acquire_without_ref(tenant, groups):
        acquired = acquire(tenant, groups)
        tier._release(acquired)
        return [(group, copy.copy(entry)) for group, entry in acquired]

    return acquire_without_ref


class _OwnershipChangeVsRoutedSearch(Scenario):
    """Worker 0 changes segment-group ownership on a real ``ElasticTier``;
    worker 1 runs ``ElasticTier.search`` through it.  The drain makes the
    shard-side ownership re-check unreachable, so ``check`` wants the exact
    top-k and no :class:`SegmentOwnershipError` answered on the way (the
    router would re-route one and still answer right).
    """

    def setup(self):
        state = _Box()
        state.db = _make_doc_db(num_docs=10)  # 2 segments -> groups {0, 1}
        state.db.vacuum()
        config = ServeConfig(enable_cache=False)
        state.tier = ElasticTier(state.db, 2, config, transport=InlineTransport).start()
        state.shards = list(state.tier.shards.values())  # outlive remove_server
        state.query = np.zeros(_DIM, dtype=np.float32)
        state.query[1] = 25.0
        state.truth_ids = {
            (vtype, vid) for _, vtype, vid in _search(state.db, state.query, k=3)
        }
        state.tier.search([_ATTR], state.query, 3)  # grants both groups
        state.owner = next(
            name for name, shard in state.tier.shards.items() if shard.owns("default", 1)
        )
        state.result = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            self.change(state)
            return
        state.result = state.tier.search([_ATTR], state.query, 3)

    def check(self, state) -> None:
        refusals = [error for shard in state.shards for error in shard.refusals]
        assert not refusals, (
            f"a routed sub-request was refused mid-flight: {refusals[0]}"
        )
        assert set(state.result) == state.truth_ids, (
            "ownership change altered routed search content: "
            f"{sorted(state.result)} != {sorted(state.truth_ids)}"
        )

    def teardown(self, state) -> None:
        state.tier.stop()
        state.db.close()


class RebalanceVsSearch(_Twinned, _OwnershipChangeVsRoutedSearch):
    """``ElasticTier.rebalance`` moves group 1 to the other server.  The
    ``-unvalidated`` twin patches the tier's ``_acquire`` so the router
    holds no in-flight ref: the shipped drain then waits for nothing, and a
    sub-request routed before the move reaches a shard that lost its group.
    """

    row = "rebalance-vs-search"

    def setup(self):
        state = super().setup()
        if not self.validate:
            state.tier._acquire = _acquire_holding_no_ref(state.tier)
        return state

    def change(self, state) -> None:
        target = next(name for name in state.tier.shards if name != state.owner)
        state.tier.rebalance("default", 1, target)


class RemoveServerVsSearch(_OwnershipChangeVsRoutedSearch):
    """``ElasticTier.remove_server`` scales in the server owning group 1:
    every key it owns drains and moves, then the server stops."""

    name = "remove-server-vs-search"

    def change(self, state) -> None:
        state.tier.remove_server(state.owner)


# --------------------------------------------------------------------------
# concurrent HNSW insert vs clone
# --------------------------------------------------------------------------


class HnswInsertVsClone(_Twinned):
    """Inserts racing ``clone()``, the state copy an index merge rewrites.

    Worker 0 builds three new ids into a six-row index; worker 1 clones it.
    Whatever the interleaving, the clone must be a state the insert passed
    through: a count in 6..9, three results for a query at each new vector,
    every returned id held by the clone at its true distance, and a new id
    the clone holds returned first at its own vector.

    With ``validate=True`` the copy is the shipped ``clone()``, whose
    ``__getstate__`` copies under ``_write_lock``.  With ``validate=False``
    it takes the same state copy without the lock: a clone taken mid-build
    maps new ids to rows its count does not cover, so it claims ids no
    search can return.
    """

    row = "hnsw-insert-vs-clone"
    twin = "-unlocked"

    def setup(self):
        state = _Box()
        state.index = HNSWIndex(dim=_DIM, M=4, ef_construction=16, seed=7)
        rng = np.random.default_rng(11)
        base = rng.standard_normal((6, _DIM)).astype(np.float32)
        state.index.update_items(range(6), base)
        state.extra = rng.standard_normal((3, _DIM)).astype(np.float32)
        state.clone = None
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            state.index.update_items([6, 7, 8], state.extra)
            return
        if self.validate:
            state.clone = state.index.clone()
            return
        with mock.patch.object(state.index, "_write_lock", nullcontext()):
            state.clone = state.index.clone()

    def check(self, state) -> None:
        clone = state.clone
        count = clone.stats.num_vectors
        assert 6 <= count <= 9, f"torn clone: count {count}"
        for new_id, query in enumerate(state.extra, 6):
            result = clone.topk_search(query, k=3)
            assert len(result.ids) == 3, f"clone returned {len(result.ids)} of 3"
            assert new_id not in clone or result.ids[0] == new_id, (
                f"the clone holds id {new_id}, a search at its vector misses it"
            )
            for ext_id, distance in zip(result.ids.tolist(), result.distances.tolist()):
                assert ext_id in clone, f"returned id {ext_id} is not in the clone"
                true = float(np.sum((clone.get_embedding(ext_id) - query) ** 2))
                assert abs(distance - true) <= 1e-3 * max(1.0, true), (
                    f"id {ext_id} returned at distance {distance}, its vector is at {true}"
                )


# --------------------------------------------------------------------------
# a fresh HNSW batch built into a live index vs a lock-free search
# --------------------------------------------------------------------------


class HnswFreshBatchVsSearch(_Twinned):
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

    row = "hnsw-fresh-batch-vs-search"
    twin = "-count-first"

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


class IndexMergeRowReuseVsPinnedSearch(_Twinned):
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

    row = "index-merge-row-reuse-vs-pinned-search"
    twin = "-inplace"

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


class BatcherVsWindowClose(Scenario):
    """Enqueues racing a leader's batch-collection window.

    Worker 0 puts four requests built from one spec (one fusion key) on a
    ``QueryServer``'s queue; worker 1 takes a leader and runs the server's
    ``MicroBatcher.collect``.  Whatever the interleaving, conservation must
    hold: every request ends up either in the collected batch or still
    queued — none lost, none duplicated — and the batch never exceeds
    ``max_batch``.  The requests are stamped at one instant far past the
    clock and the window is a minute, so with riders in hand ``collect``
    waits until a put's notify, never a timeout, and closes ``full`` (or
    ``lone``) where only the schedule decides.
    """

    name = "batcher-vs-window"

    def setup(self):
        state = _Box()
        state.db = _make_doc_db()
        config = ServeConfig(max_batch=4, batch_window_seconds=60.0)
        state.server = QueryServer(state.db, config)
        spec = SearchSpec(state.db.service, [_ATTR], np.ones(_DIM, dtype=np.float32), _K)
        state.requests = [_request(state.server, spec, 1e12) for _ in range(4)]
        state.batch = []
        return state

    def worker(self, state, index: int) -> None:
        if index == 0:
            for request in state.requests:
                state.server.queue.put(request, "default")
            return
        leader = state.server.queue.take()
        state.batch = state.server.batcher.collect(leader)

    def check(self, state) -> None:
        drained = state.server.queue.drain_matching(lambda _request: True, 16)
        seen = sorted(state.requests.index(r) for r in state.batch + drained)
        assert seen == list(range(len(state.requests))), (
            f"requests lost or duplicated across batch/queue: {seen}"
        )
        assert len(state.batch) <= state.server.batcher.max_batch

    def teardown(self, state) -> None:
        state.db.close()


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
    ScenarioSpec(lambda: CommitVsCachedSearch(validate=True), ("pct", 256), False),
    ScenarioSpec(lambda: SessionTokenVsCommitPublish(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: SessionTokenVsCommitPublish(validate=True), ("pct", 256), False),
    ScenarioSpec(lambda: VacuumVsSearch(), ("pct", 12), False),
    ScenarioSpec(lambda: TierDemoteVsSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: TierDemoteVsSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(lambda: RebalanceVsSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: RebalanceVsSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(lambda: RemoveServerVsSearch(), ("pct", 64), False),
    ScenarioSpec(lambda: HnswInsertVsClone(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: HnswInsertVsClone(validate=True), ("pct", 64), False),
    ScenarioSpec(lambda: HnswFreshBatchVsSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: HnswFreshBatchVsSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(lambda: IndexMergeRowReuseVsPinnedSearch(validate=False), ("pct", 256), True),
    ScenarioSpec(lambda: IndexMergeRowReuseVsPinnedSearch(validate=True), ("pct", 64), False),
    ScenarioSpec(lambda: BatcherVsWindowClose(), ("random", 64), False),
]


def scenario_names() -> list[str]:
    return [spec.name for spec in MATRIX]


def make_scenario(name: str) -> Scenario:
    for spec in MATRIX:
        if spec.name == name:
            return spec.factory()
    raise KeyError(f"unknown scenario {name!r} (known: {', '.join(scenario_names())})")
