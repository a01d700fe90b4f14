"""The program under test: set-up, one op per workload, and the layer probes.

A :class:`Target` builds the database (the part ``setup_s`` times), runs ops
through the public API, turns raw results into primary keys for the oracle,
and replays a sampled op through each layer's public functions while a
:class:`Tracer` records spans.  Spans are taken here, from outside the program;
spans inside it are a later change.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro import TigerVectorDB
from repro.core.search import (
    build_topk_vertex_set,
    merge_sharded_topk,
    vector_search_merged,
    vector_search_sharded,
)
from repro.elastic import ElasticTier
from repro.graph.accumulators import MapAccum
from repro.graph.schema import Attribute
from repro.gsql.parser import parse
from repro.index.bitmap import Bitmap
from repro.serve.server import QueryServer, ServeConfig
from repro.types import AttrType, Metric

from .workloads import DIM, K, VACUUM_EVERY, Dataset, Scale, hybrid_text, stream_length

ATTRS = ["Item.emb"]
NPROC = os.cpu_count() or 1


class Tracer:
    """In-memory span log: name, start, end, op id, and the span that caused it.

    Probes replay an op's layers one after another, so a child is linked to
    its parent by id, not by time containment, and a span's self time is its
    duration minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, name: str, op: int, parent: int | None, start: float, end: float) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "op": op, "parent": parent, "start": start, "end": end})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        sid = self.add(name, op, parent, time.perf_counter(), 0.0)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()

    def per_op_ms(self, kind: str) -> dict[str, dict[int, float]]:
        """name -> op -> summed milliseconds; ``kind`` is ``"total"`` or ``"self"``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict[int, float]] = {}
        for span, children in zip(self.spans, child_time):
            value = span["end"] - span["start"] - (children if kind == "self" else 0.0)
            per_op = out.setdefault(span["name"], {})
            per_op[span["op"]] = per_op.get(span["op"], 0.0) + value * 1e3
        return out


def packed(results) -> np.ndarray:
    """Vertex ids of each result set as one (queries, K) array, -1 padded.

    The loop keeps one of these per op in place of the program's result
    objects: a growing heap of retained containers slows every later
    collection, which would bill the benchmark's bookkeeping to the program.
    """
    out = np.full((len(results), K), -1, dtype=np.int32)
    for row, result in zip(out, results):
        ids = [vid for _, vid in result][:K]
        row[: len(ids)] = ids
    return out


class Target:
    """Base: the shared database build plus the per-workload hooks."""

    clients = 1
    exact = False  # answers must be the true top-K, not merely K valid rows
    wal = False

    def __init__(self, dataset: Dataset, scale: Scale, ops: dict[str, np.ndarray], workdir: str):
        self.dataset = dataset
        self.scale = scale
        self.ops = ops
        self.length = stream_length(ops)
        self.workdir = workdir
        self.db: TigerVectorDB | None = None
        self.phases: dict[str, float] = {}
        self.counts: Counter = Counter()  # non-span layer facts gathered by probes
        # Inputs in the shape the loaders take, built before any clock starts.
        self._items = [{"id": i, "bucket": int(b)} for i, b in enumerate(dataset.bucket)]
        self._owners = [{"id": i} for i in range(scale.owners)]
        self._edges = [(i, int(o)) for i, o in enumerate(dataset.owner)]
        self._pks = list(range(dataset.rows))
        self.queries = ops["queries"]

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Everything ``setup_s`` covers: schema, loads, HNSW build, server start."""
        wal_path = os.path.join(self.workdir, f"wal-{os.getpid()}.log") if self.wal else None
        marks = [time.perf_counter()]
        db = TigerVectorDB(segment_size=self.scale.segment_size, wal_path=wal_path)
        db.schema.create_vertex_type(
            "Item",
            [Attribute("id", AttrType.INT, primary_key=True), Attribute("bucket", AttrType.INT)],
        )
        db.schema.create_vertex_type("Owner", [Attribute("id", AttrType.INT, primary_key=True)])
        db.schema.create_edge_type("ownedBy", "Item", "Owner")
        db.schema.add_embedding_attribute("Item", "emb", dimension=DIM, model="bench", metric=Metric.L2)
        db.bulk_load_vertices("Item", self._items)
        db.bulk_load_vertices("Owner", self._owners)
        marks.append(time.perf_counter())
        db.bulk_load_edges("ownedBy", self._edges)
        marks.append(time.perf_counter())
        db.bulk_load_embeddings("Item", "emb", self._pks, self.dataset.vectors)
        marks.append(time.perf_counter())
        self.db = db
        self.store = db.service.store("Item", "emb")
        self.phases = {
            "vertices_s": marks[1] - marks[0],
            "edges_s": marks[2] - marks[1],
            "embeddings_s": marks[3] - marks[2],
        }
        self.serve()

    def serve(self) -> None:
        """Start whatever sits in front of the database (nothing, by default)."""

    def stop(self) -> None:
        if self.db is not None:
            wal_path = self.db.store.wal.path
            self.db.close()
            self.db = None
            if wal_path is not None:
                os.remove(wal_path)

    def check_ids(self) -> None:
        """Rows were loaded in key order, so vid == primary key; the oracle relies on it."""
        last = self.dataset.rows - 1
        if self.db.vid_for("Item", last) != last or self.db.vid_for("Item", 0) != 0:
            raise RuntimeError("vertex ids do not equal primary keys; cannot judge answers")

    # ------------------------------------------------------------------- ops
    def op(self, i: int):
        raise NotImplementedError

    def answers(self, raw) -> np.ndarray:
        return packed([raw])

    def verify(self, executed: list[int], answers: list) -> int:
        """Extra wrong-op count beyond the oracle's (cross-path comparisons)."""
        return 0

    def probe(self, i: int, tracer: Tracer) -> None:
        raise NotImplementedError

    # ---------------------------------------------------------- shared probes
    def _probe_merged(self, tracer: Tracer, i: int, parent: int | None, query: np.ndarray, detail: bool) -> None:
        """Replay ``db.vector_search`` below the facade, layer by layer, one call at a time."""
        db, store = self.db, self.store
        with tracer.span("core.snapshot_pin", i, parent):
            snap = db.snapshot()
        with tracer.span("core.vector_search_merged", i, parent) as merged:
            top = vector_search_merged(db.service, snap, ATTRS, query, K)
        if detail:
            q32 = np.asarray(query, dtype=np.float32)
            for seg_no in range(store.num_segments):
                # Serial per-segment scans: merged minus their sum is what the
                # thread-pool fan-out adds (or, if negative, saves).
                with tracer.span("core.search_segment", i, merged) as seg_span:
                    store.search_segment(seg_no, q32, K, snap.tid)
                seg_snap = store.segment(seg_no).snapshot_for(snap.tid)
                mask = seg_snap.present
                stats = seg_snap.index.stats
                evals, hops = stats.num_distance_computations, stats.num_hops
                with tracer.span("index.topk_search", i, seg_span):
                    seg_snap.index.topk_search(q32, K, filter_fn=lambda off: bool(mask[off]))
                self.counts["hnsw_dist_evals"] += stats.num_distance_computations - evals
                self.counts["hnsw_hops"] += stats.num_hops - hops
            self.counts["hnsw_probed_ops"] += 1
        with tracer.span("core.materialize", i, parent):
            build_topk_vertex_set(top, None)
        with tracer.span("core.snapshot_pin", i, parent):
            snap.release()


class TopkDirect(Target):
    def op(self, i: int):
        return self.db.vector_search(ATTRS, self.queries[i], K)

    def probe(self, i: int, tracer: Tracer) -> None:
        with tracer.span("e2e.op", i) as root:
            self.op(i)
        self._probe_merged(tracer, i, root, self.queries[i], detail=True)


class HybridGsql(Target):
    def __init__(self, *args):
        super().__init__(*args)
        self.texts = [hybrid_text(bool(p), int(a)) for p, a in zip(self.ops["pattern"], self.ops["arg"])]

    def op(self, i: int):
        return self.db.run_gsql(self.texts[i], qv=self.queries[i])

    def answers(self, raw) -> np.ndarray:
        return packed([[member for member, _ in raw.result.ranking]])

    def probe(self, i: int, tracer: Tracer) -> None:
        db, store, text, query = self.db, self.store, self.texts[i], self.queries[i]
        start = time.perf_counter()
        with tracer.span("e2e.op", i) as root:
            result = self.op(i)
        with tracer.span("gsql.explain", i, root) as explain:
            db.gsql.explain(text, qv=query)
        with tracer.span("gsql.parse", i, explain):
            parse(text)
        # The executor's own stage clocks (QueryResult.metrics) place the
        # predicate scan and the vector stage inside the op.
        scan_s = result.metrics.get("filter_seconds", 0.0)
        tracer.add("graph.scan", i, root, start, start + scan_s)
        vector = tracer.add("core.vector_topk", i, root, start, start + result.metrics["vector_seconds"])
        arg = int(self.ops["arg"][i])
        eligible = self.dataset.owner == arg if self.ops["pattern"][i] else self.dataset.bucket < arg
        candidates = np.flatnonzero(eligible).tolist()
        with db.snapshot() as snap:
            with tracer.span("graph.bitmap", i, vector):
                bitmaps = [Bitmap.wrap(mask) for mask in snap.bitmap_from_vids("Item", candidates)]
            q32 = np.asarray(query, dtype=np.float32)
            for seg_no, bitmap in enumerate(bitmaps):
                if bitmap.count():
                    with tracer.span("index.filtered_search", i, vector):
                        store.search_segment(seg_no, q32, K, snap.tid, bitmap=bitmap)
        stats = result.metrics.get("action_stats")
        if stats is not None:
            self.counts["segments_touched"] += stats.segments_touched
            self.counts["segments_bruteforce"] += stats.segments_bruteforce


class ServeMultiquery(Target):
    clients = 2
    exact = True  # the fused kernel is an exact scan

    def serve(self) -> None:
        self.server = QueryServer(self.db, ServeConfig(workers=NPROC, enable_cache=False)).start()

    def stop(self) -> None:
        if self.db is not None:
            self.server.stop()
        super().stop()

    def op(self, i: int):
        futures = [self.server.submit_search(ATTRS, query, K) for query in self.queries[i]]
        return [future.result() for future in futures]

    def answers(self, raw) -> np.ndarray:
        return packed(raw)

    def probe(self, i: int, tracer: Tracer) -> None:
        queries = self.queries[i]
        with tracer.span("e2e.op", i) as root:
            with tracer.span("serve.submit", i, root):
                futures = [self.server.submit_search(ATTRS, query, K) for query in queries]
            for future in futures:
                future.result()
        with self.db.snapshot() as snap:
            with tracer.span("index.fused_scan", i, root):
                for seg_no in range(self.store.num_segments):
                    self.store.search_segment_batch(seg_no, queries, K, snap.tid)
        # One lone query through the server against the same query below it:
        # the difference is window + queue + hand-off.
        with tracer.span("serve.search", i) as single:
            self.server.search(ATTRS, queries[0], K)
        self._probe_merged(tracer, i, single, queries[0], detail=False)


class ElasticClosed(Target):
    clients = 2

    def serve(self) -> None:
        self.config = ServeConfig(workers=1, enable_cache=True)
        self.tier = ElasticTier(self.db, num_servers=2, config=self.config).start()
        self.plain = None  # router-less twin for elastic.overhead_ms, started by the first probe

    def stop(self) -> None:
        if self.db is not None:
            self.tier.stop()
            if self.plain is not None:
                self.plain.stop()
        super().stop()

    def op(self, i: int):
        return self.tier.search(ATTRS, self.queries[i], K)

    def _ordered(self, search, query) -> list[int]:
        distances = MapAccum()
        search(ATTRS, query, K, distance_map=distances)
        return [vid for (_, vid), _ in sorted(distances.items(), key=lambda item: (item[1], item[0]))]

    def verify(self, executed: list[int], answers: list) -> int:
        """1 op in 20: the tier's ids and order must equal a direct db.vector_search."""
        wrong = 0
        for index, answer in list(zip(executed, answers))[::20]:
            query = self.queries[index % self.length]
            direct = self._ordered(self.db.vector_search, query)
            routed = self._ordered(self.tier.search, query)
            wrong += not (direct == routed and set(direct) == set(answer[0].tolist()))
        return wrong

    def probe(self, i: int, tracer: Tracer) -> None:
        query = self.queries[i]
        if self.plain is None:
            self.plain = QueryServer(self.db, self.config).start()
        with tracer.span("e2e.op", i) as root:
            self.op(i)
        with tracer.span("serve.search", i, root) as single:
            self.plain.search(ATTRS, query, K, no_cache=True)
        self._probe_merged(tracer, i, single, query, detail=False)
        groups = self.tier.group_universe(ATTRS)
        start = time.perf_counter()
        owners = [self.tier.ring.owner("default", group) for group in groups]
        tracer.add("elastic.ring_lookup", i, None, start, start + (time.perf_counter() - start) / len(groups))
        with self.db.snapshot() as snap:
            parts = [
                vector_search_sharded(
                    self.db.service, snap, ATTRS, query, K,
                    groups=frozenset(g for g, o in zip(groups, owners) if o == owner),
                )
                for owner in sorted(set(owners))
            ]
        with tracer.span("elastic.merge", i):
            merge_sharded_topk(parts, K)


class UpdateMixed(Target):
    wal = True

    def __init__(self, *args):
        super().__init__(*args)
        self._upsert_pks = self.ops["pks"].tolist()

    def _commit(self, i: int) -> None:
        with self.db.begin() as txn:
            for pk, vector in zip(self._upsert_pks[i], self.ops["vectors"][i]):
                txn.set_embedding("Item", pk, "emb", vector)

    def op(self, i: int):
        self._commit(i)
        found = [self.db.vector_search(ATTRS, query, K) for query in self.queries[i]]
        if (i + 1) % VACUUM_EVERY == 0:
            self.db.vacuum()
        return found

    def answers(self, raw) -> np.ndarray:
        return packed(raw)

    def probe(self, i: int, tracer: Tracer) -> None:
        """One more op of the stream, taken apart in place (a commit cannot be replayed)."""
        db, store = self.db, self.store
        wal_path = db.store.wal.path
        wal_before = os.path.getsize(wal_path)
        with tracer.span("e2e.op", i) as root:
            with tracer.span("graph.commit", i, root):
                self._commit(i)
            for query in self.queries[i]:
                with tracer.span("core.vector_search", i, root):
                    db.vector_search(ATTRS, query, K)
        self.counts["wal_bytes"] += os.path.getsize(wal_path) - wal_before
        self.counts["commits"] += 1
        self.counts["pending_deltas"] += store.pending_delta_count()
        with db.snapshot() as snap:
            with tracer.span("core.overlay_scan", i):
                for seg_no in range(store.num_segments):
                    base = store.segment(seg_no).snapshot_for(snap.tid)
                    store.overlay_records(seg_no, base.tid, snap.tid)
        self._probe_merged(tracer, i, None, self.queries[i][1], detail=True)
        if (i + 1) % VACUUM_EVERY == 0:
            db.vacuum()


TARGETS = {
    "topk_direct": TopkDirect,
    "hybrid_gsql": HybridGsql,
    "serve_multiquery": ServeMultiquery,
    "elastic_closed": ElasticClosed,
    "update_mixed": UpdateMixed,
}
