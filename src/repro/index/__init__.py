"""Vector indexes: the HNSW implementation and supporting machinery.

The paper wires an open-source HNSW library into TigerVector behind four
generic functions — GetEmbedding, TopKSearch, RangeSearch, UpdateItems
(Sec. 4.4).  faiss/hnswlib are unavailable offline, so :mod:`repro.index.hnsw`
implements HNSW from scratch on numpy kernels; :mod:`repro.index.bruteforce`
provides the FLAT fallback used below the valid-point threshold; and
:mod:`repro.index.range_search` adapts the DiskANN repeated-top-k approach
for range queries, since HNSW has no native range search.
"""

from .bitmap import Bitmap
from .bruteforce import BruteForceIndex
from .hnsw import HNSWIndex
from .ivf import IVFFlatIndex, kmeans
from .pq import IVFPQIndex, PQCodebook, PQCodes, PQKernel
from .sq8 import SQ8FlatIndex
from .interface import IndexStats, SearchResult, VectorIndex, create_index
from .range_search import range_search_via_topk

__all__ = [
    "Bitmap",
    "BruteForceIndex",
    "HNSWIndex",
    "IVFFlatIndex",
    "IVFPQIndex",
    "PQCodebook",
    "PQCodes",
    "PQKernel",
    "SQ8FlatIndex",
    "kmeans",
    "IndexStats",
    "SearchResult",
    "VectorIndex",
    "create_index",
    "range_search_via_topk",
]
