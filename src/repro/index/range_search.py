"""Range search built from repeated top-k searches (paper Sec. 4.4).

HNSW has no native range-search operation, so TigerVector adapts the
DiskANN approach: run top-k searches with geometrically growing ``k`` until
the given threshold is smaller than the median of the returned distances —
at that point at least half of the last result set lies beyond the radius,
so the within-radius set has been covered.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import VectorSearchError
from .interface import SearchResult, VectorIndex

__all__ = ["grow_topk_to_radius", "range_search_via_topk"]


def grow_topk_to_radius(
    topk: Callable[[int], Any], threshold: float, cap: int, initial_k: int = 16, growth: int = 2
):
    """The doubling schedule: the first ``topk(k)`` result that covers the radius.

    ``topk(k)`` returns anything carrying ascending ``distances``; ``k`` grows
    from ``initial_k`` by ``growth`` up to ``cap`` until the result is short of
    ``k`` (nothing more to find) or has its median at or beyond ``threshold``.
    The caller keeps the entries below ``threshold``.
    """
    k = min(initial_k, cap)
    while True:
        result = topk(k)
        found = len(result.distances)
        if found < k or k >= cap or threshold <= float(np.median(result.distances)):
            return result
        k = min(k * growth, cap)


def range_search_via_topk(
    index: VectorIndex,
    query: np.ndarray,
    threshold: float,
    initial_k: int = 16,
    growth: int = 2,
    ef: int | None = None,
    filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    max_k: int | None = None,
) -> SearchResult:
    """All valid vectors with distance < ``threshold``, sorted ascending.

    ``initial_k`` and ``growth`` control the doubling schedule; ``max_k``
    caps the search (defaults to the index size).
    """
    if threshold <= 0 and index.metric.value == "L2":
        return SearchResult.empty()
    if initial_k <= 0 or growth < 2:
        raise VectorSearchError("initial_k must be positive and growth >= 2")
    size = len(index)
    if size == 0:
        return SearchResult.empty()
    result = grow_topk_to_radius(
        lambda k: index.topk_search(query, k, ef=ef, filter_fn=filter_fn),
        threshold,
        min(max_k or size, size),
        initial_k,
        growth,
    )
    within = result.distances < threshold
    return SearchResult(result.ids[within], result.distances[within])
