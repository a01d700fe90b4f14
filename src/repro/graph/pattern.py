"""Graph pattern matching for GSQL FROM clauses.

Supports the path patterns the paper uses, e.g.::

    (s:Person) - [:knows] -> (:Person) <- [:hasCreator] - (t:Post)

with aliases, per-alias attribute filters (predicate pushdown from the WHERE
clause), repeated hops (``[:knows*3]`` — how the hybrid-search benchmark
varies path length), vertex-set variables as node labels (query
composition), and both traversal directions.

Two evaluation modes:

- :func:`match_frontier` — set semantics: the distinct vertices binding each
  alias position, computed by frontier expansion (no binding blow-up; this
  is what collecting the Message candidate set in Sec. 6.5 needs);
- :func:`match_bindings` — bag-of-bindings semantics: every concrete path,
  enumerated depth-first (what vector similarity joins need, Sec. 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import GSQLSemanticError, UnknownTypeError
from .schema import GraphSchema
from .segment import SegmentState
from .txn import Snapshot
from .vertex_set import VertexSet

__all__ = [
    "EdgeHop",
    "NodeMasks",
    "NodePattern",
    "PathPattern",
    "match_bindings",
    "match_frontier",
]

#: Per-alias node predicate: fn(vid, attrs) -> bool.
NodeFilter = Callable[[int, dict[str, Any]], bool]

#: Column kernel: fn(state) -> bool array over the state's first ``size``
#: rows, or None when this segment's columns cannot answer exactly.
ColumnMask = Callable[[SegmentState], "np.ndarray | None"]


class NodeMasks:
    """One alias's pre-filter: ``predicate AND live`` as one bool mask per segment.

    Masks are built on first use and kept for the snapshot's lifetime.  With
    a ``column_mask`` kernel a mask is a few array operations; the first
    segment the kernel declines (returns ``None``) switches the *whole alias*
    to ``check``, the per-row predicate, which is also all a plain callable
    filter ever uses.  Both routes produce the same bits, so masks built
    before the switch stay valid.

    ``check`` only ever sees the rows a row-wise matcher would visit: every
    live row of a scanned type (:meth:`masks`), one row per :meth:`ok`.  A
    declined column is exactly one where ``check`` may raise (``None > 30``),
    so a row no hop reaches must not be evaluated.
    """

    def __init__(
        self, snapshot: Snapshot, check: NodeFilter, column_mask: ColumnMask | None = None
    ):
        self._snapshot = snapshot
        self._check = check
        self._column_mask = column_mask
        self._masks: dict[tuple[str, int], np.ndarray] = {}

    @property
    def columnar(self) -> bool:
        """True while every mask so far came from the column kernel."""
        return self._column_mask is not None

    def _row_ok(self, vertex_type: str, vid: int, row: dict[str, Any]) -> bool:
        row["_type"] = vertex_type  # expose the member type to filters
        return self._check(vid, row)

    def _kernel_mask(self, vertex_type: str, seg_no: int) -> np.ndarray | None:
        """One segment's mask from the memo or the column kernel.

        ``None`` when only ``check`` can answer; a kernel that declines turns
        the alias row-wise for good.
        """
        key = (vertex_type, seg_no)
        mask = self._masks.get(key)
        if mask is not None or self._column_mask is None:
            return mask
        state = self._snapshot.segment_state(vertex_type, seg_no)
        predicate = self._column_mask(state)
        if predicate is None:
            self._column_mask = None
            return None
        mask = state.valid_mask()
        mask[: state.size] &= predicate
        self._masks[key] = mask
        return mask

    def mask_for(self, vertex_type: str, seg_no: int) -> np.ndarray:
        """Qualifying live offsets of one segment, length = segment capacity.

        Row-wise this runs ``check`` over every live row of the segment.
        """
        mask = self._kernel_mask(vertex_type, seg_no)
        if mask is None:
            state = self._snapshot.segment_state(vertex_type, seg_no)
            mask = state.valid_mask()
            base = seg_no * self._snapshot.segment_size
            for offset in np.flatnonzero(mask).tolist():
                if not self._row_ok(vertex_type, base + offset, state.get_row(offset)):
                    mask[offset] = False
            self._masks[vertex_type, seg_no] = mask
        return mask

    def masks(self, vertex_type: str) -> list[np.ndarray]:
        """:meth:`mask_for` every segment of ``vertex_type``, in segment order."""
        return [
            self.mask_for(vertex_type, seg_no)
            for seg_no in range(self._snapshot.num_segments(vertex_type))
        ]

    def ok(self, vertex_type: str, vid: int) -> bool:
        """Does one vertex qualify?  Row-wise this reads and checks that row only."""
        seg_no, offset = divmod(vid, self._snapshot.segment_size)
        mask = self._kernel_mask(vertex_type, seg_no)
        if mask is not None:
            return bool(mask[offset])
        row = self._snapshot.get_vertex(vertex_type, vid)
        return row is not None and self._row_ok(vertex_type, vid, row)


@dataclass(frozen=True)
class NodePattern:
    """``(alias:Label)`` — label is a vertex type or a vertex-set variable."""

    alias: str | None = None
    label: str | None = None


@dataclass(frozen=True)
class EdgeHop:
    """``-[:etype]->`` / ``<-[:etype]-`` with an optional repeat count."""

    edge_type: str
    direction: str = "out"  # "out" (->) or "in" (<-)
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("out", "in"):
            raise GSQLSemanticError(f"invalid edge direction '{self.direction}'")
        if self.repeat < 1:
            raise GSQLSemanticError("edge repeat count must be >= 1")


@dataclass
class PathPattern:
    """Alternating nodes and hops: ``nodes[0] hops[0] nodes[1] ...``."""

    nodes: list[NodePattern]
    hops: list[EdgeHop] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.hops) + 1:
            raise GSQLSemanticError("pattern must alternate nodes and edges")

    def aliases(self) -> list[str]:
        return [n.alias for n in self.nodes if n.alias]

    def expanded_hops(self) -> list[EdgeHop]:
        """Unroll repeat counts into unit hops."""
        out: list[EdgeHop] = []
        for hop in self.hops:
            out.extend(EdgeHop(hop.edge_type, hop.direction) for _ in range(hop.repeat))
        return out

    def expanded_positions(self) -> list[NodePattern]:
        """Node patterns aligned with :meth:`expanded_hops` (+1 length).

        Unrolled intermediate positions are anonymous and unlabeled.
        """
        out: list[NodePattern] = [self.nodes[0]]
        for hop, node in zip(self.hops, self.nodes[1:]):
            out.extend(NodePattern() for _ in range(hop.repeat - 1))
            out.append(node)
        return out


def _hop_types(schema: GraphSchema, hop: EdgeHop) -> tuple[str, str]:
    """(source_type, target_type) for traversing ``hop`` forward."""
    etype = schema.edge_type(hop.edge_type)
    if hop.direction == "out":
        return etype.from_type, etype.to_type
    return etype.to_type, etype.from_type


def _initial_members(
    snapshot: Snapshot,
    schema: GraphSchema,
    node: NodePattern,
    expected_type: str | None,
    resolve_set: Callable[[str], VertexSet | None],
    masks: NodeMasks | None,
) -> set[tuple[str, int]]:
    """Candidate (type, vid) members for a pattern's first position."""
    members: set[tuple[str, int]] = set()
    label = node.label
    vset = resolve_set(label) if label else None
    if vset is not None:
        for vtype, vid in vset:
            if expected_type is not None and vtype != expected_type:
                continue
            if masks.ok(vtype, vid) if masks else snapshot.vertex_exists(vtype, vid):
                members.add((vtype, vid))
        return members
    vertex_type = label or expected_type
    if vertex_type is None:
        raise GSQLSemanticError("cannot infer the vertex type of the pattern's first node")
    if label and expected_type and label != expected_type:
        raise GSQLSemanticError(
            f"node labeled '{label}' cannot start edge requiring '{expected_type}'"
        )
    per_segment = masks.masks(vertex_type) if masks else snapshot.valid_bitmaps(vertex_type)
    for seg_no, mask in enumerate(per_segment):
        base = seg_no * snapshot.segment_size
        members.update((vertex_type, base + offset) for offset in np.flatnonzero(mask).tolist())
    return members


def _node_ok(
    snapshot: Snapshot,
    member: tuple[str, int],
    node: NodePattern,
    expected_type: str | None,
    resolve_set: Callable[[str], VertexSet | None],
    masks: NodeMasks | None,
) -> bool:
    vtype, vid = member
    if expected_type is not None and vtype != expected_type:
        return False
    if node.label:
        vset = resolve_set(node.label)
        if vset is not None:
            if member not in vset:
                return False
        elif node.label != vtype:
            return False
    # An adjacency entry may outlive its target: a deleted vertex is no match.
    return masks.ok(vtype, vid) if masks else snapshot.vertex_exists(vtype, vid)


def _as_masks(
    snapshot: Snapshot, node_filters: dict[str, NodeFilter | NodeMasks] | None
) -> dict[str, NodeMasks]:
    """Plain ``fn(vid, attrs)`` filters become row-wise mask providers."""
    return {
        alias: f if isinstance(f, NodeMasks) else NodeMasks(snapshot, f)
        for alias, f in (node_filters or {}).items()
    }


def match_frontier(
    snapshot: Snapshot,
    schema: GraphSchema,
    pattern: PathPattern,
    node_filters: dict[str, NodeFilter | NodeMasks] | None = None,
    resolve_set: Callable[[str], VertexSet | None] | None = None,
) -> dict[str, VertexSet]:
    """Distinct vertices binding each alias, by forward frontier expansion.

    Note the frontier semantics: an aliased position's set contains vertices
    reachable through the pattern *prefix*; suffix constraints do not prune
    earlier positions (GSQL's post-accum semantics for the final alias — the
    one hybrid queries collect — are exact).
    """
    node_filters = _as_masks(snapshot, node_filters)
    resolve_set = resolve_set or (lambda name: None)
    positions = pattern.expanded_positions()
    hops = pattern.expanded_hops()

    first = positions[0]
    expected = _hop_types(schema, hops[0])[0] if hops else None
    frontier = _initial_members(
        snapshot, schema, first, expected,
        resolve_set, node_filters.get(first.alias or ""),
    )
    result: dict[str, VertexSet] = {}
    if first.alias:
        result[first.alias] = VertexSet(frontier, name=first.alias)

    for hop, node in zip(hops, positions[1:]):
        src_type, dst_type = _hop_types(schema, hop)
        reverse = hop.direction == "in"
        next_frontier: set[tuple[str, int]] = set()
        node_filter = node_filters.get(node.alias or "")
        for vtype, vid in frontier:
            if vtype != src_type:
                continue
            for target in snapshot.neighbors(vtype, vid, hop.edge_type, reverse=reverse):
                member = (dst_type, target)
                if member in next_frontier:
                    continue
                if _node_ok(snapshot, member, node, dst_type, resolve_set, node_filter):
                    next_frontier.add(member)
        frontier = next_frontier
        if node.alias:
            result[node.alias] = VertexSet(frontier, name=node.alias)
        if not frontier:
            break
    for node in positions:
        if node.alias and node.alias not in result:
            result[node.alias] = VertexSet(name=node.alias)
    return result


def match_bindings(
    snapshot: Snapshot,
    schema: GraphSchema,
    pattern: PathPattern,
    node_filters: dict[str, NodeFilter | NodeMasks] | None = None,
    resolve_set: Callable[[str], VertexSet | None] | None = None,
    limit: int | None = None,
) -> Iterator[dict[str, tuple[str, int]]]:
    """Enumerate concrete path bindings depth-first.

    Yields ``{alias: (vertex_type, vid)}`` for every matched path (duplicate
    alias projections possible, as in SQL join semantics — callers dedup).
    Used by vector similarity joins, where matched paths are sparse enough
    for brute-force pair scoring (Sec. 5.4).
    """
    node_filters = _as_masks(snapshot, node_filters)
    resolve_set = resolve_set or (lambda name: None)
    positions = pattern.expanded_positions()
    hops = pattern.expanded_hops()

    first = positions[0]
    expected = _hop_types(schema, hops[0])[0] if hops else None
    start = _initial_members(
        snapshot, schema, first, expected,
        resolve_set, node_filters.get(first.alias or ""),
    )

    emitted = 0

    def extend(
        index: int, member: tuple[str, int], binding: dict[str, tuple[str, int]]
    ) -> Iterator[dict[str, tuple[str, int]]]:
        nonlocal emitted
        if index == len(hops):
            yield dict(binding)
            return
        hop = hops[index]
        node = positions[index + 1]
        src_type, dst_type = _hop_types(schema, hop)
        vtype, vid = member
        if vtype != src_type:
            return
        reverse = hop.direction == "in"
        node_filter = node_filters.get(node.alias or "")
        for target in snapshot.neighbors(vtype, vid, hop.edge_type, reverse=reverse):
            nxt = (dst_type, target)
            if not _node_ok(snapshot, nxt, node, dst_type, resolve_set, node_filter):
                continue
            if node.alias:
                binding[node.alias] = nxt
            yield from extend(index + 1, nxt, binding)
            if node.alias:
                del binding[node.alias]

    for member in start:
        binding: dict[str, tuple[str, int]] = {}
        if first.alias:
            binding[first.alias] = member
        for result in extend(0, member, binding):
            yield result
            emitted += 1
            if limit is not None and emitted >= limit:
                return
