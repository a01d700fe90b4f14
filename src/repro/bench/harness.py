"""Benchmark scaling and on-disk caching.

Index construction is the dominant cost of every bench (pure-Python HNSW),
so built systems are cached under ``.bench_cache/`` keyed by dataset,
system, and build parameters; re-runs load in seconds.  Delete the cache
directory to force rebuilds.

Scales:

=========  ============================  =========================
scale      SIFT-like / Deep-like size    hybrid (LDBC) scale factor
=========  ============================  =========================
smoke      2,000                         0.5
small      20,000 (default)              1.0
large      100,000                       3.0
=========  ============================  =========================

The paper's 100M/1B datasets are far beyond laptop Python; the bench
preserves the *ratios* that matter (10x for data scalability, 3x between
hybrid scale factors).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from ..datasets.vectors import VectorDataset, make_deep_like, make_sift_like

__all__ = [
    "BenchScale",
    "bench_scale",
    "cached_system",
    "dataset_for",
]

_CACHE_DIR = Path(os.environ.get("REPRO_BENCH_CACHE", ".bench_cache"))


@dataclass(frozen=True)
class BenchScale:
    name: str
    vector_count: int
    query_count: int
    ldbc_scale_factor: float
    segment_size: int


_SCALES = {
    "smoke": BenchScale("smoke", 2_000, 20, 0.5, 1_000),
    "small": BenchScale("small", 20_000, 50, 1.0, 4_000),
    "large": BenchScale("large", 100_000, 100, 3.0, 16_000),
}


def bench_scale() -> BenchScale:
    """The active scale, from ``REPRO_BENCH_SCALE`` (default: small)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if name not in _SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}")
    return _SCALES[name]


def dataset_for(kind: str, n: int | None = None, num_queries: int | None = None) -> VectorDataset:
    """A SIFT-like or Deep-like dataset at the active scale, with ground truth."""
    scale = bench_scale()
    n = n or scale.vector_count
    num_queries = num_queries or scale.query_count
    if kind == "sift":
        dataset = make_sift_like(n, num_queries=num_queries)
    elif kind == "deep":
        dataset = make_deep_like(n, num_queries=num_queries)
    else:
        raise ValueError("kind must be 'sift' or 'deep'")
    return dataset.with_ground_truth(100 if n >= 100 else n)


def embedding_store_for(dataset, segment_size: int, attr: str = "emb"):
    """A standalone EmbeddingStore (no graph) bulk-loaded with a dataset.

    Used by the scalability benches, which exercise the distributed vector
    path without needing vertices or GSQL.
    """
    import numpy as np

    from ..core.embedding import EmbeddingType
    from ..core.service import EmbeddingStore
    from ..types import IndexType

    embedding = EmbeddingType(
        name=attr,
        dimension=dataset.dim,
        model=dataset.name,
        index=IndexType.HNSW,
        metric=dataset.metric,
    )
    store = EmbeddingStore("Bench", embedding, segment_size)
    store.bulk_load(
        np.arange(len(dataset), dtype=np.int64), dataset.vectors, tid=1
    )
    return store


def cached_system(key: str, builder):
    """Build-or-load a benchmark subject (pickled under .bench_cache/).

    ``builder()`` runs on a cache miss; its return value must be picklable.
    The timings measured during the original build are preserved on the
    object, so Table 2 stays meaningful across cached runs.
    """
    _CACHE_DIR.mkdir(parents=True, exist_ok=True)
    path = _CACHE_DIR / f"{key}.pkl"
    if path.exists():
        with open(path, "rb") as fh:
            return pickle.load(fh)
    obj = builder()
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return obj
