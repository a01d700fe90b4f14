"""Transactional vector updates, the two-stage vacuum, and WAL recovery.

Demonstrates the machinery of the paper's Sec. 4.3:

- graph + vector writes commit atomically under one TID;
- committed-but-unvacuumed updates are immediately visible to search
  (index-snapshot results combined with brute force over deltas);
- the delta-merge and index-merge vacuum stages run separately;
- old index snapshots serve pinned readers until they release;
- the write-ahead log replays everything, vectors included, after a crash.

Run:  python examples/incremental_updates.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import TigerVectorDB
from repro.graph.storage import GraphStore

DIM = 24
rng = np.random.default_rng(41)

SCHEMA = """
CREATE VERTEX Item (id INT PRIMARY KEY, label STRING);
ALTER VERTEX Item ADD EMBEDDING ATTRIBUTE emb
  (DIMENSION = 24, MODEL = toy, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);
"""


def main() -> None:
    wal_path = Path(tempfile.mkdtemp()) / "items.wal"
    db = TigerVectorDB(segment_size=64, wal_path=wal_path)
    db.run_gsql(SCHEMA)

    vectors = rng.standard_normal((100, DIM)).astype(np.float32)
    with db.begin() as txn:
        for i in range(100):
            txn.upsert_vertex("Item", i, {"label": f"item{i}"})
            txn.set_embedding("Item", i, "emb", vectors[i])
    db.vacuum()
    store = db.service.store("Item", "emb")
    print(f"loaded 100 items; pending deltas after vacuum: {store.pending_delta_count()}")

    # --- atomic mixed update, visible before any vacuum -------------------
    moved = np.full(DIM, 25.0, dtype=np.float32)
    with db.begin() as txn:  # one TID covers the attribute AND the vector
        txn.upsert_vertex("Item", 7, {"label": "item7-v2"})
        txn.set_embedding("Item", 7, "emb", moved)
    hit = db.vector_search(["Item.emb"], moved, k=1)
    (vtype, vid) = next(iter(hit))
    with db.snapshot() as snap:
        label = snap.get_attr("Item", vid, "label")
    print(f"update visible pre-vacuum: nearest to new location = "
          f"Item({db.pk_for(vtype, vid)}) label={label!r}")
    print(f"unmerged deltas serving that query: {store.pending_delta_count()}")

    # --- snapshot pinning across the vacuum --------------------------------
    pinned = db.snapshot()
    with db.begin() as txn:
        txn.set_embedding("Item", 7, "emb", vectors[7])  # move it back
    result = db.vacuum()
    print(f"vacuum: flushed={result['flushed']} merged={result['merged']}")
    old_view = store.get_embedding(vid, snapshot_tid=pinned.tid)
    new_view = store.get_embedding(vid)
    print(f"pinned reader still sees the moved vector: {bool(np.allclose(old_view, 25.0))}")
    print(f"fresh reader sees the restored vector:      {bool(np.allclose(new_view, vectors[7]))}")
    pinned.release()

    # --- the two vacuum stages -------------------------------------------
    with db.begin() as txn:
        for i in range(20, 30):
            txn.set_embedding("Item", i, "emb", rng.standard_normal(DIM))
    flushed = db.vacuum_manager.delta_merge(store)  # fast: memory -> file
    merged = db.vacuum_manager.index_merge(store)   # one pass per segment, in record order
    print(f"delta merge flushed {flushed} records; index merge folded {merged}")

    # --- crash recovery from the WAL ---------------------------------------
    db.store.wal.close()
    recovered_vectors = {}

    def capture(tid, ops):
        for action, vtype_, vid_, attr, vector in ops:
            if action == "upsert":
                recovered_vectors[vid_] = vector

    recovered = GraphStore.recover(
        db.schema, wal_path, segment_size=64, embedding_hook=capture
    )
    with recovered.snapshot() as snap:
        count = snap.count("Item")
        label = snap.get_attr("Item", snap.vid_for_pk("Item", 7), "label")
    print(f"\nWAL recovery: {count} items restored, item7 label={label!r}, "
          f"{len(recovered_vectors)} distinct vectors replayed")
    db.close()


if __name__ == "__main__":
    main()
