"""TigerVectorDB: the top-level facade.

One object wiring together everything the paper describes: the graph store
(segments, MVCC, WAL), the embedding service (decoupled vector storage), the
two-stage vacuum, MPP execution, pattern matching, the VectorSearch()
function, and the GSQL compiler.

Typical use::

    db = TigerVectorDB()
    db.schema.create_vertex_type("Post", [Attribute("id", AttrType.INT, primary_key=True),
                                          Attribute("lang", AttrType.STRING)])
    db.schema.add_embedding_attribute("Post", "content_emb", dimension=128,
                                      model="GPT4", metric=Metric.L2)
    with db.begin() as txn:
        txn.upsert_vertex("Post", 1, {"lang": "en"})
        txn.set_embedding("Post", 1, "content_emb", vec)
    db.vacuum()                      # fold deltas into index snapshots
    top = db.vector_search(["Post.content_emb"], query, k=10)
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import VectorSearchError
from ..graph.schema import GraphSchema
from ..graph.storage import GraphStore
from ..graph.txn import Snapshot, Transaction
from ..graph.vertex_set import VertexSet
from .search import (
    SearchSpec,
    SegmentMasks,
    build_topk_vertex_set,
    vector_search,
    vector_search_batch,
)
from .embedding import require_finite
from .service import EmbeddingService
from .vacuum import VacuumManager

__all__ = ["TigerVectorDB"]


class TigerVectorDB:
    """A single-process TigerVector instance (graph + vectors + GSQL)."""

    def __init__(
        self,
        schema: GraphSchema | None = None,
        segment_size: int = 4096,
        wal_path: str | os.PathLike | None = None,
        bf_threshold: int | None = None,
    ):
        self.schema = schema or GraphSchema()
        self.store = GraphStore(self.schema, segment_size=segment_size, wal_path=wal_path)
        self.service = EmbeddingService(
            self.schema, segment_size=segment_size, bf_threshold=bf_threshold
        )
        self.store.register_embedding_hook(self.service.on_commit)
        self.vacuum_manager = VacuumManager(self.store, self.service)
        self._gsql_session = None
        # Guards the lazy gsql/access singletons: serve workers hit both
        # properties concurrently, and an unguarded check-then-create would
        # let two threads race to construct (one session wins, the other's
        # installed state is silently lost).
        self._lazy_lock = threading.Lock()

    # ------------------------------------------------------------- recovery
    @classmethod
    def recover(
        cls,
        schema: GraphSchema,
        wal_path: str | os.PathLike,
        segment_size: int = 4096,
    ) -> "TigerVectorDB":
        """Rebuild a database by replaying its write-ahead log.

        Graph state, vector deltas, and the pk index are all reconstructed;
        the embedding service's commit hook is registered *before* replay so
        vector upserts land in the delta stores with their original TIDs.
        Run :meth:`vacuum` afterwards to rebuild index snapshots.
        """
        db = cls.__new__(cls)
        db.schema = schema
        db.service = EmbeddingService(schema, segment_size=segment_size)
        db.store = GraphStore.recover(
            schema, wal_path, segment_size=segment_size,
            embedding_hook=db.service.on_commit,  # stays registered afterwards
        )
        db.vacuum_manager = VacuumManager(db.store, db.service)
        db._gsql_session = None
        db._lazy_lock = threading.Lock()
        return db

    # --------------------------------------------------------- transactions
    def begin(self) -> Transaction:
        return self.store.begin()

    def snapshot(self) -> Snapshot:
        return self.store.snapshot()

    def session_token(self) -> int:
        """Latest published commit TID (read-your-writes token; see serve)."""
        return self.store.session_token()

    def vacuum(self) -> dict:
        """Run one synchronous vacuum round (delta merge + index merge + graph)."""
        return self.vacuum_manager.run_once()

    # -------------------------------------------------------------- loading
    def bulk_load_vertices(
        self,
        vertex_type: str,
        rows: Iterable[dict[str, Any]],
        batch_size: int = 10_000,
    ) -> int:
        """Insert many vertices in large transactions; returns count.

        The load's own deltas are folded into the segments' base versions
        before returning (a graph-only vacuum), so later snapshots of a
        read-mostly store overlay nothing.
        """
        vtype = self.schema.vertex_type(vertex_type)
        pk = vtype.primary_key
        count = 0
        txn = self.begin()
        for row in rows:
            txn.upsert_vertex(vertex_type, row[pk], row)
            count += 1
            if count % batch_size == 0:
                txn.commit()
                txn = self.begin()
        if txn.pending_ops:
            txn.commit()
        self.store.vacuum()
        return count

    def bulk_load_edges(
        self,
        edge_type: str,
        pairs: Iterable[tuple[Any, Any]],
        batch_size: int = 20_000,
    ) -> int:
        count = 0
        txn = self.begin()
        for from_pk, to_pk in pairs:
            txn.add_edge(edge_type, from_pk, to_pk)
            count += 1
            if count % batch_size == 0:
                txn.commit()
                txn = self.begin()
        if txn.pending_ops:
            txn.commit()
        self.store.vacuum()
        return count

    def bulk_load_embeddings(
        self,
        vertex_type: str,
        attr: str,
        pks: Sequence[Any],
        vectors: np.ndarray,
    ) -> int:
        """Fast-path embedding load: vids resolved, segments built directly.

        This is the optimized loading path behind Table 2's short data-load
        times; it bypasses the per-record delta store (appropriate for
        initial ingest, which needs no MVCC history).  Vectors new to their
        segment's index are built in one pass, then vertices an earlier load
        already indexed are rewritten in record order.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        embedding = self.schema.vertex_type(vertex_type).embedding(attr)
        if vectors.shape[1] != embedding.dimension:
            raise ValueError(
                f"vectors have dimension {vectors.shape[1]}, embedding expects "
                f"{embedding.dimension}"
            )
        require_finite(vectors, f"embedding '{attr}' bulk load")
        vids = []
        for pk in pks:
            vid = self.store.vid_for_pk(vertex_type, pk)
            if vid is None:
                raise KeyError(f"vertex {vertex_type}({pk!r}) does not exist")
            vids.append(vid)
        store = self.service.store(vertex_type, attr)
        store.bulk_load(np.asarray(vids, dtype=np.int64), vectors, tid=self.store.last_tid)
        return len(vids)

    # --------------------------------------------------------------- search
    def vector_search(
        self,
        vector_attributes: list[str],
        query_vector: np.ndarray,
        k: int,
        filter: VertexSet | SegmentMasks | None = None,
        distance_map=None,
        ef: int | None = None,
        snapshot: Snapshot | None = None,
    ) -> VertexSet:
        """The VectorSearch() function (Sec. 5.5) on the current snapshot."""
        with self.snapshot() if snapshot is None else nullcontext(snapshot) as snap:
            return vector_search(
                self.service, snap, vector_attributes, query_vector, k,
                filter=filter, distance_map=distance_map, ef=ef,
            )

    def vector_search_batch(
        self,
        vector_attributes: list[str],
        query_vectors: np.ndarray,
        k: int,
        snapshot: Snapshot | None = None,
    ) -> list[VertexSet]:
        """Fused multi-query VectorSearch: one segment pass for all queries.

        The kernel behind ``repro.serve``'s micro-batcher, exposed for
        direct use.  All queries run against one MVCC snapshot; returns one
        :class:`VertexSet` per query row.
        """
        queries = np.asarray(query_vectors, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if queries.ndim != 2:
            raise VectorSearchError("query_vectors must be a (Q, d) matrix")
        specs = [SearchSpec(self.service, vector_attributes, query, k) for query in queries]
        with self.snapshot() if snapshot is None else nullcontext(snapshot) as snap:
            batches = vector_search_batch(self.service, snap, specs)
        return [build_topk_vertex_set(top, None) for top in batches]

    # ------------------------------------------------------------------ RBAC
    @property
    def access(self):
        """Role-based access control (unified graph+vector governance)."""
        if getattr(self, "_access", None) is None:
            with self._lazy_lock:
                if getattr(self, "_access", None) is None:
                    from .auth import AccessController

                    self._access = AccessController(self)
        return self._access

    # ----------------------------------------------------------------- GSQL
    @property
    def gsql(self):
        """The GSQL session: ``db.gsql.run("SELECT s FROM (s:Post) ...")``.

        One shared session per database; concurrent ``run()`` calls are
        supported for query execution (see :class:`~repro.gsql.session.
        GSQLSession` for the exact contract).
        """
        if self._gsql_session is None:
            with self._lazy_lock:
                if self._gsql_session is None:
                    from ..gsql.session import GSQLSession

                    self._gsql_session = GSQLSession(self)
        return self._gsql_session

    def run_gsql(self, text: str, **params):
        """Compile and execute GSQL source (DDL, query blocks, or procedures)."""
        return self.gsql.run(text, **params)

    # ------------------------------------------------------------- plumbing
    def pk_for(self, vertex_type: str, vid: int):
        return self.store.pk_for_vid(vertex_type, vid)

    def vid_for(self, vertex_type: str, pk) -> int | None:
        return self.store.vid_for_pk(vertex_type, pk)

    def close(self) -> None:
        self.vacuum_manager.stop()
        self.store.wal.close()

    def __enter__(self) -> "TigerVectorDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
