"""A directed lock-order graph shared by the static R002 rule and the
runtime sanitizer.

Nodes are lock *names* (static analysis uses ``Class.attr``; the sanitizer
uses creation sites such as ``core/delta.py:108(self._lock)``), and an edge
``a -> b`` records "``b`` was acquired while ``a`` was held".  An edge whose
reverse path already exists closes a cycle — a lock-order inversion, the
classic precondition for deadlock between the commit, vacuum, and query
paths.

The graph itself is not synchronized; callers that share one across threads
(the sanitizer) must serialize access.
"""

from __future__ import annotations

__all__ = ["LockOrderGraph"]


class LockOrderGraph:
    """Directed graph of observed/declared lock acquisition orderings."""

    def __init__(self):
        # a -> {b -> info recorded when the edge was first seen}
        self._edges: dict[str, dict[str, object]] = {}

    def __len__(self) -> int:
        return sum(len(out) for out in self._edges.values())

    def edges(self):
        """Yield ``(a, b, info)`` for every recorded ordering."""
        for a, targets in self._edges.items():
            for b, info in targets.items():
                yield a, b, info

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._edges.get(a, ())

    def edge_info(self, a: str, b: str):
        return self._edges.get(a, {}).get(b)

    def path(self, src: str, dst: str) -> list[str] | None:
        """A directed path ``src -> ... -> dst``, or None (iterative DFS)."""
        if src == dst:
            return [src]
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, trail = stack.pop()
            for nxt in self._edges.get(node, ()):
                if nxt == dst:
                    return trail + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, trail + [nxt]))
        return None

    def add_edge(self, a: str, b: str, info: object = None) -> list[str] | None:
        """Record ``a held while acquiring b``.

        Returns the pre-existing reverse path ``b -> ... -> a`` when adding
        this edge closes a cycle (an inversion), else None.  Self-edges are
        ignored: two locks sharing one creation site (e.g. the per-instance
        delta-store lock) have no defined order between instances.
        """
        if a == b:
            return None
        inversion = self.path(b, a)
        targets = self._edges.setdefault(a, {})
        if b not in targets:
            targets[b] = info
        return inversion

    def cycles(self) -> list[list[str]]:
        """All distinct cycles found by checking each edge's reverse path.

        Each cycle is reported once, as ``[a, b, ..., a]``, deduplicated by
        its set of participating nodes.
        """
        found: list[list[str]] = []
        seen_keys: set[frozenset[str]] = set()
        for a, b, _ in list(self.edges()):
            back = self.path(b, a)
            if back is None:
                continue
            cycle = [a] + back
            key = frozenset(cycle)
            if key not in seen_keys:
                seen_keys.add(key)
                found.append(cycle)
        return found
