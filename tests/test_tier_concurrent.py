"""Concurrent MVCC-consistency test for cold-segment (PQ) search.

Run under the runtime sanitizer to also check lock discipline::

    REPRO_SANITIZE=1 PYTHONPATH=src python -m pytest tests/test_tier_concurrent.py

Protocol: reader threads search a tiered store — some segments hot, some
cold — under pinned snapshots while a writer thread commits embedding
updates and a vacuum thread runs merge rounds (each of which triggers a
tier rebalance, so demotions and promotions happen *while* reads are in
flight).  Every reader verifies snapshot isolation locally: a search
pinned at TID ``t`` must return exactly the brute-force answer over the
vectors visible at ``t``, whatever tier transitions publish around it.
The rerank inflation covers every row at this scale, so cold answers are
exact and the check is equality, not recall.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Attribute, AttrType, Metric, TigerVectorDB
from repro.core.search import vector_search_merged
from repro.index.pq import PQSearchConfig

ROUNDS = 3
READERS = 3
SEARCHES_PER_READER = 10
N = 160
DIM = 8
SEG = 32
K = 5


@pytest.fixture
def tiered_db():
    rng = np.random.default_rng(23)
    db = TigerVectorDB(segment_size=SEG)
    db.schema.create_vertex_type(
        "Item", [Attribute("id", AttrType.INT, primary_key=True)]
    )
    db.schema.add_embedding_attribute(
        "Item", "emb", dimension=DIM, model="demo", metric=Metric.L2
    )
    vectors = rng.standard_normal((N, DIM)).astype(np.float32)
    db.bulk_load_vertices("Item", [{"id": i} for i in range(N)])
    db.bulk_load_embeddings("Item", "emb", list(range(N)), vectors)
    db.vacuum()
    # Budget for two of five segments; generous rerank keeps cold exact.
    db.enable_tiering(
        budget_bytes=2 * SEG * DIM * 4,
        pq=PQSearchConfig(m=4, seed=29, rerank_factor=8),
    )
    db.vacuum()
    db._truth = {db.vid_for("Item", i): vectors[i].copy() for i in range(N)}
    db._truth_lock = threading.Lock()
    yield db
    db.close()


def brute_topk(visible: dict, query: np.ndarray, k: int) -> list:
    scored = sorted(
        (float(((vec - query) ** 2).sum()), vid) for vid, vec in visible.items()
    )
    return [vid for _, vid in scored[:k]]


def test_cold_search_is_snapshot_consistent_under_vacuum_and_commit(tiered_db, rng):
    db = tiered_db
    errors: list[str] = []
    stop = threading.Event()
    queries = rng.standard_normal((READERS, SEARCHES_PER_READER, DIM)).astype(
        np.float32
    )

    def reader(worker: int) -> None:
        try:
            for round_no in range(ROUNDS):
                for qi in range(SEARCHES_PER_READER):
                    query = queries[worker, qi]
                    # Capture the truth table *before* pinning: every commit
                    # updates vectors first, then publishes, so the pinned
                    # snapshot sees a (possibly newer) prefix of _truth —
                    # but our probe vectors are never the updated ids, and
                    # updates move ids *away* from all probes (see writer),
                    # so expected top-k is stable across the window.
                    with db._truth_lock:
                        visible = dict(db._truth)
                    with db.snapshot() as snap:
                        got = [
                            vid
                            for _, _, vid in vector_search_merged(
                                db.service, snap, ["Item.emb"], query, K
                            )
                        ]
                    want = brute_topk(visible, query, K)
                    if got != want:
                        errors.append(
                            f"reader {worker} round {round_no}: {got} != {want}"
                        )
                        return
        except Exception as exc:  # noqa: BLE001 - surfaced via errors list
            errors.append(f"reader {worker}: {type(exc).__name__}: {exc}")

    def writer() -> None:
        # Push updated ids far away from every probe query (standard
        # normals stay within a few units; 60+ is unreachable), so updates
        # never change any reader's expected top-k mid-window.
        try:
            far = 60.0
            for step in range(12):
                vid = db.vid_for("Item", step % 7)
                vec = np.full(DIM, far + step, dtype=np.float32)
                with db._truth_lock:
                    db._truth[vid] = vec
                with db.begin() as txn:
                    txn.set_embedding("Item", step % 7, "emb", vec)
                if stop.is_set():
                    return
        except Exception as exc:  # noqa: BLE001 - surfaced via errors list
            errors.append(f"writer: {type(exc).__name__}: {exc}")

    def vacuumer() -> None:
        try:
            for _ in range(ROUNDS):
                db.vacuum()  # merge + tier rebalance
                if stop.is_set():
                    return
        except Exception as exc:  # noqa: BLE001 - surfaced via errors list
            errors.append(f"vacuum: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
    threads.append(threading.Thread(target=writer))
    threads.append(threading.Thread(target=vacuumer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stop.set()
    assert not errors, errors[:3]

    # The workload actually exercised the cold path: after the final
    # rebalance the budget (2 of 5 segments) must have left cold segments,
    # and the quiesced state still answers exactly.
    db.vacuum()
    tiers = [
        s.current_snapshot().tier
        for s in db.service.store("Item", "emb").segments()
    ]
    assert tiers.count("cold") >= 3
    with db._truth_lock:
        visible = dict(db._truth)
    query = queries[0, 0]
    with db.snapshot() as snap:
        got = [
            vid
            for _, _, vid in vector_search_merged(
                db.service, snap, ["Item.emb"], query, K
            )
        ]
    assert got == brute_topk(visible, query, K)


def test_demotion_never_races_a_pinned_reader_to_error(tiered_db, rng):
    """Hammer demote/promote twins directly against pinned readers.

    Unlike the vacuum path (which rebalances between merges), this drives
    tier transitions as fast as possible while readers hold pinned
    snapshots, looking for torn states (half-published twins) that would
    surface as exceptions or wrong members.
    """
    from repro.tier import demote_segment, promote_segment

    db = tiered_db
    store = db.service.store("Item", "emb")
    errors: list[str] = []
    done = threading.Event()
    with db._truth_lock:
        visible = dict(db._truth)
    query = rng.standard_normal(DIM).astype(np.float32)
    want = brute_topk(visible, query, K)

    def flipper() -> None:
        try:
            for _ in range(20):
                for segment in store.segments():
                    if segment.current_snapshot().tier == "hot":
                        demote_segment(store, segment, db.tier_manager.pq)
                    else:
                        promote_segment(store, segment)
        except Exception as exc:  # noqa: BLE001 - surfaced via errors list
            errors.append(f"flipper: {type(exc).__name__}: {exc}")
        finally:
            done.set()

    def reader() -> None:
        try:
            while not done.is_set():
                with db.snapshot() as snap:
                    got = [
                        vid
                        for _, _, vid in vector_search_merged(
                            db.service, snap, ["Item.emb"], query, K
                        )
                    ]
                if got != want:
                    errors.append(f"reader: {got} != {want}")
                    return
        except Exception as exc:  # noqa: BLE001 - surfaced via errors list
            errors.append(f"reader: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    threads.append(threading.Thread(target=flipper))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[:3]
