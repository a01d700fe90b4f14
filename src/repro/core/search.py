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
is the only place an attribute list becomes :func:`repro.core.action.topk`
calls; every door — this function, GSQL, ``authorized_search``, the serving
tiers — calls it and merges with :func:`merge_sharded_topk`.  The doors
differ only in who produced the pre-filter.

**One check.**  The arguments travel as one :class:`SearchSpec`, checked
when it is built; every door builds one and nothing downstream checks
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import DimensionMismatchError, ServeError, VectorSearchError
from ..graph.accumulators import MapAccum
from ..graph.txn import Snapshot
from ..graph.vertex_set import VertexSet
from ..index.bitmap import Bitmap
from ..telemetry import get_telemetry
from . import action
from .action import ActionStats
from .embedding import check_compatible, require_finite
from .service import EmbeddingService, EmbeddingStore

__all__ = [
    "SearchSpec",
    "SegmentMasks",
    "build_topk_vertex_set",
    "check_topk_args",
    "merge_sharded_topk",
    "resolve_search",
    "search_merged",
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


def check_topk_args(k, ef: int | None = None) -> None:
    """Refuse a ``k`` or ``ef`` that is not a positive integer.

    A float is refused, not truncated, and ``ef`` 0 or below is refused, not
    read as "the default" or as a narrower beam.  ``ef=None`` is the default.
    """
    if not _int_from(k, 1):
        raise VectorSearchError(f"k must be a positive integer, got {k!r}")
    if ef is not None and not _int_from(ef, 1):
        raise VectorSearchError(f"ef must be a positive integer, got {ef!r}")


def _int_from(value, low: int) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def resolve_search(
    service: EmbeddingService, vector_attributes: Sequence[str], dimension: int
) -> tuple[tuple[str, str], ...]:
    """``"VertexType.attr"`` names -> ``(vertex_type, attr)`` search targets.

    The static half of every search: the Sec. 4.1 compatibility check, and a
    query of the wrong ``dimension`` refused before any segment is touched.
    A resolution depends only on the catalog, so a successful one is kept
    on ``service`` under ``(schema.version, attributes, dimension)`` and a
    repeated door call reads it back; a DDL statement bumps the version,
    so the next call resolves again.  A refusal is not kept: it raises
    the same typed error on every call.
    """
    attributes = tuple(vector_attributes)
    schema = service.schema
    version, memo = service.resolved
    if version != schema.version:
        version, memo = schema.version, {}
        service.resolved = (version, memo)
    targets = memo.get((attributes, dimension))
    if targets is not None:
        return targets
    resolved = [(name, *schema.embedding_attribute(name)) for name in attributes]
    representative = check_compatible([(name, embedding) for name, _, embedding in resolved])
    if dimension != representative.dimension:
        raise DimensionMismatchError(
            f"query has dimension {dimension}, embedding expects {representative.dimension}"
        )
    targets = tuple((vertex_type, embedding.name) for _, vertex_type, embedding in resolved)
    memo[(attributes, dimension)] = targets
    return targets


@dataclass(frozen=True, slots=True, eq=False, init=False)
class SearchSpec:
    """One checked ``VectorSearch(attrs, query, k, opts)`` request (Sec. 5.5).

    The constructor is the one check: ``k`` and ``ef`` are positive
    integers, the query is finite, the attributes are compatible and of
    the query's dimension (:func:`resolve_search`), and the freshness
    bounds — ``max_staleness`` (watermark-TID lag) and ``session_token``
    (a commit TID) — are non-negative integers, else
    :class:`~repro.errors.ServeError`.  Every door builds one; the loop,
    the freshness gate, the fusion and cache keys and a shard's
    sub-request read it.  It holds no store, snapshot or lock.
    """

    attributes: tuple[str, ...]
    query: np.ndarray
    k: int
    ef: int | None
    filter: VertexSet | SegmentMasks | None
    distance_map: MapAccum | None
    max_staleness: int | None
    session_token: int | None
    targets: tuple[tuple[str, str], ...]  # (vertex_type, attr) per attribute

    def __init__(
        self, service: EmbeddingService, attributes: Sequence[str], query, k: int, *,
        ef=None, filter=None, distance_map=None, max_staleness=None, session_token=None,
    ):
        check_topk_args(k, ef)
        query = require_finite(np.asarray(query, dtype=np.float32).reshape(-1), "query vector")
        attributes = tuple(attributes)
        targets = resolve_search(service, attributes, query.shape[0])
        if max_staleness is not None or session_token is not None:
            for name, value in (("max_staleness", max_staleness), ("session_token", session_token)):
                if value is not None and not _int_from(value, 0):
                    raise ServeError(f"{name} must be a non-negative integer, got {value!r}")
        init = object.__setattr__  # one call per field: the door's hot path
        init(self, "attributes", attributes)
        init(self, "query", query)
        init(self, "k", k)
        init(self, "ef", ef)
        init(self, "filter", filter)
        init(self, "distance_map", distance_map)
        init(self, "max_staleness", max_staleness)
        init(self, "session_token", session_token)
        init(self, "targets", targets)

    def stores(self, service: EmbeddingService) -> list[tuple[str, EmbeddingStore]]:
        """``(vertex_type, store)`` per attribute, in attribute order."""
        return [(vtype, service.store(vtype, attr)) for vtype, attr in self.targets]

    def fusion_key(self) -> tuple | None:
        """What a fused batch shares; ``None`` runs the search alone.

        A filter differs per request, an SLA bound needs its own pin, and an
        explicit ``ef`` is an accuracy contract only a per-query traversal
        honours (traversals share no work, so it runs at once).
        """
        if (
            self.filter is not None
            or self.ef is not None
            or self.max_staleness is not None
            or self.session_token is not None
        ):
            return None
        return (self.attributes, self.k)

    def cache_key(self, watermarks: tuple, *suffix) -> tuple:
        """The result-cache key at ``watermarks`` (read before the pin, see
        :mod:`repro.serve.cache`); the query bytes stand at index 3."""
        return (self.attributes, self.k, self.ef, self.query.tobytes(), watermarks) + suffix


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
    out = VertexSet([(vertex_type, vid) for _, vertex_type, vid in top], name="TopK")
    if distance_map is not None:
        for dist, vertex_type, vid in top:
            distance_map.put((vertex_type, vid), dist)
    return out


def search_merged(
    service: EmbeddingService,
    snapshot: Snapshot,
    spec: SearchSpec,
    prefilter: VertexSet | SegmentMasks | None,
) -> list[tuple[float, str, int]]:
    """Global top-k of ``spec`` as sorted ``(distance, vertex_type, vid)`` triples.

    The full VectorSearch pipeline minus result materialization; the serving
    layer caches these triples because, unlike a :class:`VertexSet`, they
    are immutable and carry the distances.  It is the one-shard case of the
    sharded search: every segment group, one partial, merged.
    ``prefilter`` is the filter in force — ``spec.filter``, or that ANDed
    with a role's masks.
    """
    with get_telemetry().span(
        "vector.search", k=spec.k, attributes=list(spec.attributes)
    ):
        parts, _ = vector_search_parts(service, snapshot, spec, prefilter)
        return merge_sharded_topk([parts], spec.k)


def vector_search_merged(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    *,
    filter: VertexSet | SegmentMasks | None = None,
    ef: int | None = None,
) -> list[tuple[float, str, int]]:
    """:func:`search_merged` of the spec these arguments make."""
    spec = SearchSpec(service, vector_attributes, query_vector, k, ef=ef, filter=filter)
    return search_merged(service, snapshot, spec, spec.filter)


def vector_search_parts(
    service: EmbeddingService,
    snapshot: Snapshot,
    spec: SearchSpec,
    prefilter: VertexSet | SegmentMasks | None,
    groups: frozenset | set | None = None,
) -> tuple[list[tuple[str, tuple[tuple[float, int], ...]]], ActionStats]:
    """Per-attribute partial top-k over a subset of segment groups, and its cost.

    The shard-owner half of the elastic tier's search: a group is one
    segment ordinal, each owning server runs this over the ordinals it
    owns, and the router merges the partials with
    :func:`merge_sharded_topk`.  Returns one ``(vertex_type, pairs)`` entry
    per attribute in ``spec.attributes`` order, where ``pairs`` are the
    attribute's local top-k ``(distance, vid)`` tuples as
    :func:`~repro.core.action.topk` returns them (distance, then vid) — empty,
    and not searched, when ``prefilter`` has no candidate of the type —
    plus the attributes' summed :class:`ActionStats`.  ``prefilter`` is
    the filter in force: ``spec.filter``, that ANDed with a role's masks,
    or a GSQL block's candidates.

    ``groups=None`` searches every segment; :func:`search_merged` is
    exactly that single-shard merge.  With complementary
    group subsets the union of partial top-k lists per attribute contains
    the attribute's global top-k (top-k of a union is contained in the
    union of per-part top-k), and the (distance, vid) total order makes
    the merged result identical regardless of how segments were split.
    """
    parts: list[tuple[str, tuple[tuple[float, int], ...]]] = []
    stats = ActionStats()
    with get_telemetry().span(
        "vector.search_sharded",
        k=spec.k,
        attributes=list(spec.attributes),
        groups=None if groups is None else sorted(groups),
    ):
        for vertex_type, store in spec.stores(service):
            bitmaps = None
            if prefilter is not None:
                bitmaps = segment_bitmaps(prefilter, snapshot, vertex_type)
                if bitmaps is None:
                    parts.append((vertex_type, ()))
                    continue
            pairs, part_stats = action.topk(
                store, spec.query, spec.k, snapshot.tid,
                ef=spec.ef, bitmaps=bitmaps, seg_nos=groups,
            )
            stats += part_stats
            parts.append((vertex_type, tuple(pairs)))
    return parts, stats


def vector_search_sharded(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    *,
    filter: VertexSet | SegmentMasks | None = None,
    ef: int | None = None,
    groups: frozenset | set | None = None,
) -> list[tuple[str, tuple[tuple[float, int], ...]]]:
    """:func:`vector_search_parts` of the spec these arguments make, without
    the statistics (what a shard ships)."""
    spec = SearchSpec(service, vector_attributes, query_vector, k, ef=ef, filter=filter)
    return vector_search_parts(service, snapshot, spec, spec.filter, groups)[0]


def merge_sharded_topk(
    shard_parts: list[list[tuple[str, tuple[tuple[float, int], ...]]]],
    k: int,
) -> list[tuple[float, str, int]]:
    """Coordinator merge of shard partials into the global sorted triples.

    Every shard's output must come from :func:`vector_search_parts` over
    the *same attribute list* (so attribute indexes align).  Per attribute,
    the shard pair-lists are merged by :func:`~repro.core.action.merge_topk`
    — reconstructing what a whole-store :func:`~repro.core.action.topk`
    would have returned — then the attribute
    results are flattened in attribute order and stable-sorted by distance.
    The output is therefore byte-identical however the segments were split,
    one shard (:func:`search_merged`) included.
    """
    if not shard_parts:
        return []
    num_attrs = len(shard_parts[0])
    merged: list[tuple[float, str, int]] = []
    for attr_index in range(num_attrs):
        vertex_type = shard_parts[0][attr_index][0]
        pairs = action.merge_topk((part[attr_index][1] for part in shard_parts), k)
        merged.extend((dist, vertex_type, vid) for dist, vid in pairs)
    merged.sort(key=lambda item: item[0])
    return merged[:k]


def vector_search(
    service: EmbeddingService,
    snapshot: Snapshot,
    vector_attributes: list[str],
    query_vector: np.ndarray,
    k: int,
    *,
    filter: VertexSet | SegmentMasks | None = None,
    distance_map: MapAccum | None = None,
    ef: int | None = None,
) -> VertexSet:
    """Top-k across one or more embedding attributes; returns a VertexSet.

    ``vector_attributes`` entries are ``"VertexType.attr"`` strings.  With a
    ``filter`` vertex set the search pre-filters per segment via bitmaps;
    otherwise each segment wraps its status structure.  Results from
    different attributes are merged by distance into a single global top-k,
    which is well-defined because the compatibility check guarantees a
    shared metric and dimension.
    """
    spec = SearchSpec(
        service, vector_attributes, query_vector, k,
        ef=ef, filter=filter, distance_map=distance_map,
    )
    top = search_merged(service, snapshot, spec, spec.filter)
    return build_topk_vertex_set(top, spec.distance_map)


def vector_search_batch(
    service: EmbeddingService,
    snapshot: Snapshot,
    specs: Sequence[SearchSpec],
) -> list[list[tuple[float, str, int]]]:
    """Multi-query VectorSearch on one snapshot (the serving micro-batch kernel).

    ``specs`` share one :meth:`SearchSpec.fusion_key` — attributes and
    ``k``, no filter, ``ef`` or freshness bound.  Returns one sorted top-k
    triple list per spec.  The batch visits every segment once for *all*
    queries (:meth:`EmbeddingStore.search_segment_batch`, exact brute force,
    so recall is never below the per-query path).  There is no ``ef``: it
    is an HNSW accuracy contract only a per-query traversal honours, and
    traversals share no work across queries (DESIGN §10.3).
    """
    if not specs:
        return []
    leader = specs[0]
    k = leader.k
    queries = np.stack([spec.query for spec in specs])
    targets = leader.stores(service)

    dist_blocks: list[np.ndarray] = []
    vid_blocks: list[np.ndarray] = []
    type_blocks: list[np.ndarray] = []
    with get_telemetry().span(
        "vector.search_batch",
        k=k,
        batch=len(specs),
        attributes=list(leader.attributes),
    ):
        for index, (_, store) in enumerate(targets):
            for dists, vids in action.topk_batch(store, queries, k, snapshot.tid):
                dist_blocks.append(dists)
                vid_blocks.append(vids)
                type_blocks.append(np.full(dists.shape[1], index))
    if not dist_blocks:
        return [[] for _ in specs]
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
