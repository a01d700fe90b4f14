"""The flexible VectorSearch() function (paper Sec. 5.5).

``VectorSearch(vector_attributes, query_vector, k, opts)`` is TigerVector's
composable search API:

- **VectorAttributes** — one or more compatible embedding attributes, possibly
  across vertex types (compatibility is checked by the Sec. 4.1 static
  analysis before any segment is touched);
- **QueryVector** — validated against the attributes' dimensionality;
- **K** — result size;
- optional **filter** — the pre-filter: a
  :class:`~repro.graph.vertex_set.VertexSet` candidate set from a prior
  query block, or the same thing as per-segment bitmaps by vertex type
  (what a columnar ``WHERE`` and a role's row rules produce);
- optional **distance map** — an output Map accumulator receiving
  ``(vertex, distance)`` pairs;
- optional **ef** — index search parameter trading accuracy for speed.

It returns a :class:`VertexSet`, so the result plugs straight back into GSQL
query composition (queries Q2–Q4 of the paper).

**One operator, one pre-filter** (DESIGN §5.3).  :func:`vector_search_parts`
is the only place an attribute list becomes :class:`EmbeddingAction` top-k
calls; every door — this function, GSQL, ``authorized_search``, the serving
tiers — calls it and merges with :func:`merge_sharded_topk`.  The doors
differ only in who produced the pre-filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import DimensionMismatchError, VectorSearchError
from ..graph.accumulators import MapAccum
from ..graph.txn import Snapshot
from ..graph.vertex_set import VertexSet
from ..index.bitmap import Bitmap
from ..telemetry import get_telemetry
from .action import ActionStats, EmbeddingAction
from .embedding import check_compatible, require_finite
from .service import EmbeddingService, EmbeddingStore

__all__ = [
    "SegmentMasks",
    "VectorSearchOptions",
    "build_topk_vertex_set",
    "check_topk_args",
    "merge_sharded_topk",
    "resolve_search",
    "segment_bitmaps",
    "vector_search",
    "vector_search_batch",
    "vector_search_merged",
    "vector_search_parts",
    "vector_search_sharded",
]

#: A pre-filter in the operator's own form: vertex type -> one bitmap per
#: segment.  An absent type has no candidate; absent trailing segments are empty.
SegmentMasks = Mapping[str, Sequence[Bitmap]]


@dataclass
class VectorSearchOptions:
    """Optional VectorSearch parameters (Sec. 5.5 list item 4)."""

    filter: VertexSet | SegmentMasks | None = None
    distance_map: MapAccum | None = None
    ef: int | None = None


def check_topk_args(k, ef: int | None = None) -> None:
    """Refuse a ``k`` or ``ef`` that is not a positive integer.

    The one check behind every door: a float is refused, not truncated, and
    ``ef`` 0 or below is refused, not read as "the default" or as a narrower
    beam.  ``ef=None`` is the default.
    """
    if not _positive_int(k):
        raise VectorSearchError(f"k must be a positive integer, got {k!r}")
    if ef is not None and not _positive_int(ef):
        raise VectorSearchError(f"ef must be a positive integer, got {ef!r}")


def _positive_int(value) -> bool:
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 1
    )


def resolve_search(
    service: EmbeddingService, vector_attributes: list[str], dimension: int
) -> list[tuple[str, EmbeddingStore]]:
    """``"VertexType.attr"`` names -> ``(vertex_type, store)`` search targets.

    The static half of every search: the Sec. 4.1 compatibility check, and a
    query of the wrong ``dimension`` refused before any segment is touched.
    """
    resolved = [service.schema.embedding_attribute(name) for name in vector_attributes]
    representative = check_compatible(
        zip(vector_attributes, (embedding for _, embedding in resolved))
    )
    if dimension != representative.dimension:
        raise DimensionMismatchError(
            f"query has dimension {dimension}, embedding expects {representative.dimension}"
        )
    return [
        (vertex_type, service.store(vertex_type, embedding.name))
        for vertex_type, embedding in resolved
    ]


def segment_bitmaps(
    filter: VertexSet | SegmentMasks, snapshot: Snapshot, vertex_type: str
) -> Sequence[Bitmap] | None:
    """One vertex type's share of a pre-filter; ``None`` = no candidate of that type."""
    if not isinstance(filter, VertexSet):
        return filter.get(vertex_type)  # bitmaps pass through, cached counts and all
    vids = filter.vids_of_type(vertex_type)
    if not vids:
        return None
    return [Bitmap.wrap(mask) for mask in snapshot.bitmap_from_vids(vertex_type, vids)]


def build_topk_vertex_set(
    top: list[tuple[float, str, int]], distance_map: MapAccum | None
) -> VertexSet:
    """Materialize sorted ``(distance, vertex_type, vid)`` triples.

    Shared by the direct :func:`vector_search` path and the serving layer
    (``repro.serve``), so a server answer — cached, fused, or per-query — is
    constructed exactly like a direct call's.
    """
    out = VertexSet(name="TopK")
    for dist, vertex_type, vid in top:
        out.add(vertex_type, vid)
        if distance_map is not None:
            distance_map.put((vertex_type, vid), dist)
    return out


def vector_search_merged(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    options: VectorSearchOptions | None = None,
) -> list[tuple[float, str, int]]:
    """Global top-k as sorted ``(distance, vertex_type, vid)`` triples.

    The full VectorSearch pipeline minus result materialization; the serving
    layer caches these triples because, unlike a :class:`VertexSet`, they
    are immutable and carry the distances.  It is the one-shard case of the
    sharded search: every segment group, one partial, merged.
    """
    with get_telemetry().span(
        "vector.search", k=k, attributes=list(vector_attributes)
    ):
        parts = vector_search_sharded(
            service, snapshot, vector_attributes, query_vector, k, options
        )
        return merge_sharded_topk([parts], k)


def vector_search_parts(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    options: VectorSearchOptions | None = None,
    groups: frozenset | set | None = None,
    group_size: int = 1,
) -> tuple[list[tuple[str, tuple[tuple[float, int], ...]]], ActionStats]:
    """Per-attribute partial top-k over a subset of segment groups, and its cost.

    The shard-owner half of the elastic tier's search: each owning server
    runs this over the segment ordinals whose group (``seg_no //
    group_size``) it owns, and the router merges the partials with
    :func:`merge_sharded_topk`.  Returns one ``(vertex_type, pairs)`` entry
    per attribute in resolution order, where ``pairs`` are the attribute's
    local top-k ``(distance, vid)`` tuples sorted exactly as
    :meth:`EmbeddingAction.topk` sorts them (distance, then vid) — empty,
    and not searched, when the pre-filter has no candidate of the type —
    plus the attributes' summed :class:`ActionStats`.

    ``groups=None`` searches every segment; :func:`vector_search_merged` is
    exactly that single-shard merge.  With complementary
    group subsets the union of partial top-k lists per attribute contains
    the attribute's global top-k (top-k of a union is contained in the
    union of per-part top-k), and the (distance, vid) total order makes
    the merged result identical regardless of how segments were split.
    """
    options = options or VectorSearchOptions()
    check_topk_args(k, options.ef)
    if group_size < 1:
        raise VectorSearchError("group_size must be at least 1")
    query = np.asarray(query_vector, dtype=np.float32).reshape(-1)
    require_finite(query, "query vector")
    targets = resolve_search(service, vector_attributes, query.shape[0])

    tel = get_telemetry()
    parts: list[tuple[str, tuple[tuple[float, int], ...]]] = []
    stats = ActionStats()
    with tel.span(
        "vector.search_sharded",
        k=k,
        attributes=list(vector_attributes),
        groups=None if groups is None else sorted(groups),
    ):
        for vertex_type, store in targets:
            bitmaps = None
            if options.filter is not None:
                bitmaps = segment_bitmaps(options.filter, snapshot, vertex_type)
                if bitmaps is None:
                    parts.append((vertex_type, ()))
                    continue
            seg_nos = None
            if groups is not None:
                seg_nos = [
                    seg_no
                    for seg_no in range(store.num_segments)
                    if seg_no // group_size in groups
                ]
            action = EmbeddingAction(store)
            result = action.topk(
                query,
                k,
                snapshot_tid=snapshot.tid,
                ef=options.ef,
                bitmaps=bitmaps,
                seg_nos=seg_nos,
            )
            stats += action.last_stats
            parts.append(
                (vertex_type, tuple(zip(result.distances.tolist(), result.ids.tolist())))
            )
    return parts, stats


def vector_search_sharded(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    options: VectorSearchOptions | None = None,
    groups: frozenset | set | None = None,
    group_size: int = 1,
) -> list[tuple[str, tuple[tuple[float, int], ...]]]:
    """:func:`vector_search_parts` without the statistics (what a shard ships)."""
    return vector_search_parts(
        service, snapshot, vector_attributes, query_vector, k, options, groups, group_size
    )[0]


def merge_sharded_topk(
    shard_parts: list[list[tuple[str, tuple[tuple[float, int], ...]]]],
    k: int,
) -> list[tuple[float, str, int]]:
    """Coordinator merge of shard partials into the global sorted triples.

    Every shard's output must come from :func:`vector_search_sharded` over
    the *same attribute list* (so attribute indexes align).  Per attribute,
    the shard pair-lists are merged under the (distance, vid) total order
    and truncated to k — reconstructing what a whole-store
    :meth:`EmbeddingAction.topk` would have returned — then the attribute
    results are flattened in attribute order and stable-sorted by distance.
    The output is therefore byte-identical however the segments were split,
    one shard (:func:`vector_search_merged`) included.
    """
    if not shard_parts:
        return []
    num_attrs = len(shard_parts[0])
    merged: list[tuple[float, str, int]] = []
    for attr_index in range(num_attrs):
        vertex_type = shard_parts[0][attr_index][0]
        pairs: list[tuple[float, int]] = []
        for part in shard_parts:
            pairs.extend(part[attr_index][1])
        pairs.sort()
        merged.extend((dist, vertex_type, vid) for dist, vid in pairs[:k])
    merged.sort(key=lambda item: item[0])
    return merged[:k]


def vector_search(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    options: VectorSearchOptions | None = None,
) -> VertexSet:
    """Top-k across one or more embedding attributes; returns a VertexSet.

    ``vector_attributes`` entries are ``"VertexType.attr"`` strings.  With a
    ``filter`` vertex set the search pre-filters per segment via bitmaps;
    otherwise each segment wraps its status structure.  Results from
    different attributes are merged by distance into a single global top-k,
    which is well-defined because the compatibility check guarantees a
    shared metric and dimension.
    """
    options = options or VectorSearchOptions()
    top = vector_search_merged(
        service, snapshot, vector_attributes, query_vector, k, options
    )
    return build_topk_vertex_set(top, options.distance_map)


def vector_search_batch(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vectors: np.ndarray,
    k: int,
) -> list[list[tuple[float, str, int]]]:
    """Multi-query VectorSearch on one snapshot (the serving micro-batch kernel).

    Returns one sorted top-k triple list per query row.  The batch visits
    every segment once for *all* queries
    (:meth:`EmbeddingStore.search_segment_batch`, exact brute force, so
    recall is never below the per-query path).  There is no ``ef``: it is
    an HNSW accuracy contract only a per-query traversal honours, and
    traversals share no work across queries (DESIGN §10.3).

    Unfiltered only.
    """
    check_topk_args(k)
    queries = np.asarray(query_vectors, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if queries.ndim != 2:
        raise VectorSearchError("query_vectors must be a (Q, d) matrix")
    require_finite(queries, "query vectors")
    targets = resolve_search(service, vector_attributes, queries.shape[1])

    tel = get_telemetry()
    dist_blocks: list[np.ndarray] = []
    vid_blocks: list[np.ndarray] = []
    type_blocks: list[np.ndarray] = []
    with tel.span(
        "vector.search_batch",
        k=k,
        batch=queries.shape[0],
        attributes=list(vector_attributes),
    ):
        for index, (_, store) in enumerate(targets):
            for dists, vids in EmbeddingAction(store).topk_batch(
                queries, k, snapshot.tid
            ):
                dist_blocks.append(dists)
                vid_blocks.append(vids)
                type_blocks.append(np.full(dists.shape[1], index))
    if not dist_blocks:
        return [[] for _ in queries]
    # Columns stand in (attribute, segment, rank) order, so the stable sort
    # by distance breaks ties exactly as the per-query merge does.
    dists = np.concatenate(dist_blocks, axis=1)
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    rows = np.arange(order.shape[0])[:, None]
    top_dists = dists[rows, order].tolist()
    top_vids = np.concatenate(vid_blocks, axis=1)[rows, order].tolist()
    top_types = np.concatenate(type_blocks)[order].tolist()
    names = [vertex_type for vertex_type, _ in targets]
    return [
        [
            (dist, names[index], vid)
            for dist, index, vid in zip(row_dists, row_types, row_vids)
        ]
        for row_dists, row_types, row_vids in zip(top_dists, top_types, top_vids)
    ]
