"""Shared machinery for the competitor simulators.

Every system runs the *same* HNSW kernels (search compute is measured, not
modeled); a :class:`SystemProfile` declares the engine-level constants that
differentiate systems.  Constants are calibrated against the paper's
measured ratios and kept in one place (:data:`PROFILES`) so the calibration
is auditable:

- ``per_query_overhead_s``: request-path overhead outside index compute
  (HTTP parsing, JVM dispatch, gRPC, plan setup).  Neo4j's HTTP+JVM stack is
  the paper's explanation for its 15x latency gap at similar compute.
- ``client_efficiency``: how much of 16 closed-loop client threads' ideal
  throughput the engine sustains (TigerGraph's MPP engine ~0.85; Milvus
  ~0.55 — Go scheduler, per the paper's multi-core-parallelism explanation;
  Neo4j ~0.45; Neptune ~0.60).
- ``intra_query_parallelism``: effective cores one query's segment fan-out
  uses (1.0 for the single-index systems).
- ``load_factor`` / ``build_factor``: multipliers on measured base
  load/build time (Table 2: Milvus data load is 9.6-22.5x TigerVector's;
  Neo4j index build is 5.4-7.4x).
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import numpy as np

from ..cluster.costs import HardwareCost, NEPTUNE_1024_MNCU, TIGERVECTOR_N2D
from ..core.action import merge_topk
from ..datasets.vectors import VectorDataset
from ..errors import VectorSearchError
from ..index.hnsw import HNSWIndex
from ..types import Metric

__all__ = ["PROFILES", "SearchMeasurement", "SystemProfile", "VectorSystemSim"]


@dataclass(frozen=True)
class SystemProfile:
    name: str
    per_query_overhead_s: float
    client_efficiency: float
    intra_query_parallelism: float
    load_factor: float
    build_factor: float
    supports_ef_tuning: bool
    fixed_ef: int | None
    segmented: bool
    prefilter: bool
    diversity_heuristic: bool  # Lucene's HNSW lacks it -> capped recall
    atomic_updates: bool
    distributed: bool
    hardware: HardwareCost


PROFILES: dict[str, SystemProfile] = {
    "TigerVector": SystemProfile(
        name="TigerVector",
        per_query_overhead_s=0.00035,
        client_efficiency=0.85,
        intra_query_parallelism=4.0,
        load_factor=1.0,
        build_factor=1.0,
        supports_ef_tuning=True,
        fixed_ef=None,
        segmented=True,
        prefilter=True,
        diversity_heuristic=True,
        atomic_updates=True,
        distributed=True,
        hardware=TIGERVECTOR_N2D,
    ),
    "Milvus": SystemProfile(
        name="Milvus",
        per_query_overhead_s=0.00040,
        client_efficiency=0.70,
        intra_query_parallelism=3.4,
        load_factor=1.5,  # residual overhead; the row-by-row parse path
        # itself reproduces Table 2's 9.6-22.5x data-load gap
        build_factor=1.07,
        supports_ef_tuning=True,
        fixed_ef=None,
        segmented=True,
        prefilter=True,
        diversity_heuristic=True,
        atomic_updates=True,
        distributed=True,
        hardware=TIGERVECTOR_N2D,
    ),
    "Neo4j": SystemProfile(
        name="Neo4j",
        per_query_overhead_s=0.0024,  # HTTP + JVM dispatch
        client_efficiency=0.55,
        intra_query_parallelism=1.0,
        load_factor=1.0,
        build_factor=5.4,  # Table 2: Lucene single-threaded merge pipeline
        supports_ef_tuning=False,
        fixed_ef=14,  # Lucene's candidate pool is tied to k; no tuning knob
        segmented=False,
        prefilter=False,  # post-filter only
        diversity_heuristic=False,  # Lucene-style graph -> 60-70% recall cap
        atomic_updates=True,
        distributed=False,
        hardware=TIGERVECTOR_N2D,
    ),
    "Neptune": SystemProfile(
        name="Neptune",
        per_query_overhead_s=0.0011,
        client_efficiency=0.66,
        intra_query_parallelism=2.2,
        load_factor=1.2,
        build_factor=1.3,
        supports_ef_tuning=False,
        fixed_ef=128,  # one high-recall operating point (paper: 99.9%)
        segmented=False,
        prefilter=False,
        diversity_heuristic=True,
        atomic_updates=False,  # the docs state vector updates are not atomic
        distributed=False,  # single vector index for the whole graph
        hardware=NEPTUNE_1024_MNCU,
    ),
}


@dataclass
class SearchMeasurement:
    """One query's outcome: result ids + measured compute + modeled timings."""

    ids: np.ndarray
    distances: np.ndarray
    compute_seconds: float
    latency_seconds: float  # modeled single-client latency
    service_seconds: float  # modeled server-side service time


def _pairs(result):
    """One index's ``(distance, id)`` pairs, the form :func:`merge_topk` merges."""
    return zip(result.distances.tolist(), result.ids.tolist())


class VectorSystemSim:
    """A competitor built from shared HNSW kernels + a SystemProfile."""

    def __init__(
        self,
        profile: SystemProfile,
        segment_size: int = 20_000,
        M: int = 16,
        ef_construction: int = 128,
    ):
        self.profile = profile
        self.segment_size = segment_size if profile.segmented else None
        self.M = M
        self.ef_construction = ef_construction
        self.indexes: list[HNSWIndex] = []
        self.metric = Metric.L2
        self.dim = 0
        self.num_vectors = 0
        self.load_seconds = 0.0
        self.build_seconds = 0.0

    # ------------------------------------------------------------- loading
    def _parse_vectors_fast(self, text: str, dim: int) -> np.ndarray:
        """The optimized loading-tool path: one call into NumPy's C reader."""
        return np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float32, ndmin=2)

    def _parse_vectors_slow(self, text: str, dim: int) -> np.ndarray:
        """The raw-vector-file path (Milvus): per-row Python parsing."""
        rows = [
            [float(x) for x in line.split(",")]
            for line in text.splitlines()
            if line
        ]
        return np.asarray(rows, dtype=np.float32)

    def load_and_build(self, dataset: VectorDataset) -> dict[str, float]:
        """Ingest + index the dataset; returns Table-2-style timings.

        Data loading is measured on a *real* parse of a CSV serialization of
        the dataset: TigerVector and Neo4j use the vectorized parse path
        (TigerGraph's optimized loading tool; Neo4j's CSV importer — the
        paper measures them comparable), while Milvus parses row by row,
        reproducing Table 2's 9.6-22.5x data-load gap mechanically.  The
        profile's ``load_factor`` covers residual engine overheads.

        Parse and build each report the best of three runs: one wall-clock
        run is noise, not the mechanism Table 2 reproduces.  Builds are
        seeded, so the index kept is the same whichever run made it.
        """
        vectors = dataset.vectors
        self.metric = dataset.metric
        self.dim = int(vectors.shape[1])
        self.num_vectors = int(vectors.shape[0])
        csv_text = "\n".join(",".join(f"{x:.6f}" for x in row) for row in vectors)
        measured_load = measured_build = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            if self.profile.name == "Milvus":
                parsed = self._parse_vectors_slow(csv_text, self.dim)
            else:
                parsed = self._parse_vectors_fast(csv_text, self.dim)
            if self.segment_size is None:
                chunks = [(0, parsed)]
            else:
                chunks = [
                    (lo, parsed[lo: lo + self.segment_size])
                    for lo in range(0, len(parsed), self.segment_size)
                ]
            staged = [(lo, np.array(chunk, dtype=np.float32)) for lo, chunk in chunks]
            measured_load = min(measured_load, time.perf_counter() - start)

            start = time.perf_counter()
            self.indexes = []
            for lo, chunk in staged:
                index = HNSWIndex(
                    self.dim,
                    self.metric,
                    M=self.M,
                    ef_construction=self.ef_construction,
                    prune_heuristic=self.profile.diversity_heuristic,
                )
                index.update_items(range(lo, lo + len(chunk)), chunk)
                self.indexes.append(index)
            measured_build = min(measured_build, time.perf_counter() - start)
        self.load_seconds = measured_load * self.profile.load_factor
        self.build_seconds = measured_build * self.profile.build_factor
        return {
            "data_load_seconds": self.load_seconds,
            "index_build_seconds": self.build_seconds,
            "end_to_end_seconds": self.load_seconds + self.build_seconds,
        }

    # -------------------------------------------------------------- search
    def effective_ef(self, ef: int | None) -> int:
        if not self.profile.supports_ef_tuning:
            return self.profile.fixed_ef or 100
        return ef or 64

    def search(self, query: np.ndarray, k: int, ef: int | None = None) -> SearchMeasurement:
        """Top-k with measured compute and modeled engine timings."""
        if not self.indexes:
            raise VectorSearchError(f"{self.profile.name}: no index built")
        use_ef = self.effective_ef(ef)
        start = time.perf_counter()
        local = [_pairs(index.topk_search(query, k, ef=use_ef)) for index in self.indexes]
        compute = time.perf_counter() - start
        return self._measurement(merge_topk(local, k), compute)

    def filtered_search(
        self, query: np.ndarray, k: int, allowed: np.ndarray, ef: int | None = None
    ) -> SearchMeasurement:
        """Filtered top-k; pre-filter engines pass the bitmap down, post-filter
        engines search with enlarged k and filter afterwards, re-searching
        until k survivors — the paper's Sec. 5.2 cost argument, executed for
        real."""
        use_ef = self.effective_ef(ef)
        allowed = np.asarray(allowed, dtype=bool)
        start = time.perf_counter()
        if self.profile.prefilter:
            local = [
                _pairs(index.topk_search(query, k, ef=use_ef, filter_fn=lambda i: bool(allowed[i])))
                for index in self.indexes
            ]
        else:
            fetch = k
            total = self.num_vectors
            while True:
                rows = merge_topk(
                    [
                        _pairs(index.topk_search(query, fetch, ef=max(use_ef, fetch)))
                        for index in self.indexes
                    ],
                    fetch,
                )
                local = [[(d, i) for d, i in rows if allowed[i]]]
                if len(local[0]) >= k or fetch >= total:
                    break
                fetch = min(fetch * 4, total)
        compute = time.perf_counter() - start
        return self._measurement(merge_topk(local, k), compute)

    def _measurement(self, merged: list[tuple[float, int]], compute: float) -> SearchMeasurement:
        ids = np.asarray([i for _, i in merged], dtype=np.int64)
        dists = np.asarray([d for d, _ in merged], dtype=np.float32)
        service = compute / self.profile.intra_query_parallelism
        latency = service + self.profile.per_query_overhead_s
        return SearchMeasurement(ids, dists, compute, latency, service)

    # ------------------------------------------------------------- modeled
    def qps(self, mean_service_seconds: float, client_threads: int = 16) -> float:
        """Closed-loop throughput model for ``client_threads`` clients."""
        per_request = mean_service_seconds + self.profile.per_query_overhead_s
        return self.profile.client_efficiency * client_threads / per_request

    def evaluate(
        self,
        dataset: VectorDataset,
        k: int = 10,
        ef: int | None = None,
        num_queries: int | None = None,
        client_threads: int = 16,
    ) -> dict[str, float]:
        """Recall + modeled QPS/latency over the dataset's query set."""
        dataset.with_ground_truth(k)
        queries = dataset.queries
        if num_queries is not None:
            queries = queries[:num_queries]
        hits = 0
        services = []
        latencies = []
        for qi, query in enumerate(queries):
            m = self.search(query, k, ef=ef)
            truth = set(dataset.gt_ids[qi, :k].tolist())
            hits += len(truth & set(m.ids.tolist()))
            services.append(m.service_seconds)
            latencies.append(m.latency_seconds)
        recall = hits / (len(queries) * k)
        mean_service = float(np.mean(services))
        return {
            "system": self.profile.name,
            "recall": recall,
            "qps": self.qps(mean_service, client_threads),
            "latency_ms": float(np.mean(latencies)) * 1000.0,
            "ef": float(self.effective_ef(ef)),
        }
