"""GSQL accumulators (paper Sec. 2.1).

Accumulators are GSQL's signature compositional tool: mutable runtime
variables that aggregate values as query blocks activate vertices.  Global
accumulators (``@@name``) live for the whole query; vertex-local accumulators
(``@name``) attach one instance per vertex.

Every accumulator implements ``accum(value)`` (GSQL's ``+=``) and exposes
``value``.  :class:`HeapAccum` is the one the paper leans on for vector
similarity joins (Sec. 5.4): a bounded top-k heap ordered by a sort key.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generic, Iterable, TypeVar

from ..errors import ReproError

__all__ = [
    "Accumulator",
    "AndAccum",
    "AvgAccum",
    "BitwiseAndAccum",
    "BitwiseOrAccum",
    "HeapAccum",
    "ListAccum",
    "MapAccum",
    "MaxAccum",
    "MinAccum",
    "OrAccum",
    "SetAccum",
    "SumAccum",
    "VertexAccumMap",
    "make_accumulator",
]

T = TypeVar("T")


class Accumulator(Generic[T]):
    """Base accumulator protocol: ``accum`` values, read ``value``."""

    def accum(self, value: T) -> None:
        raise NotImplementedError

    def __iadd__(self, value: T) -> "Accumulator[T]":
        self.accum(value)
        return self

    @property
    def value(self) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value!r})"


class SumAccum(Accumulator):
    """Additive accumulator for numbers (or string concatenation, as in GSQL)."""

    def __init__(self, initial=0):
        self._value = initial

    def accum(self, value) -> None:
        self._value = self._value + value

    @property
    def value(self):
        return self._value


class MinAccum(Accumulator):
    def __init__(self):
        self._value = None

    def accum(self, value) -> None:
        if self._value is None or value < self._value:
            self._value = value

    @property
    def value(self):
        return self._value


class MaxAccum(Accumulator):
    def __init__(self):
        self._value = None

    def accum(self, value) -> None:
        if self._value is None or value > self._value:
            self._value = value

    @property
    def value(self):
        return self._value


class AvgAccum(Accumulator):
    def __init__(self):
        self._total = 0.0
        self._count = 0

    def accum(self, value) -> None:
        self._total += value
        self._count += 1

    @property
    def value(self):
        return self._total / self._count if self._count else 0.0

    @property
    def count(self) -> int:
        return self._count


class OrAccum(Accumulator):
    def __init__(self, initial: bool = False):
        self._value = bool(initial)

    def accum(self, value) -> None:
        self._value = self._value or bool(value)

    @property
    def value(self) -> bool:
        return self._value


class AndAccum(Accumulator):
    def __init__(self, initial: bool = True):
        self._value = bool(initial)

    def accum(self, value) -> None:
        self._value = self._value and bool(value)

    @property
    def value(self) -> bool:
        return self._value


class BitwiseOrAccum(Accumulator):
    def __init__(self):
        self._value = 0

    def accum(self, value) -> None:
        self._value |= int(value)

    @property
    def value(self) -> int:
        return self._value


class BitwiseAndAccum(Accumulator):
    def __init__(self):
        self._value = ~0

    def accum(self, value) -> None:
        self._value &= int(value)

    @property
    def value(self) -> int:
        return self._value


class ListAccum(Accumulator):
    def __init__(self):
        self._items: list = []

    def accum(self, value) -> None:
        if isinstance(value, (list, tuple)):
            self._items.extend(value)
        else:
            self._items.append(value)

    @property
    def value(self) -> list:
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


class SetAccum(Accumulator):
    def __init__(self):
        self._items: set = set()

    def accum(self, value) -> None:
        if isinstance(value, (set, frozenset, list, tuple)):
            self._items.update(value)
        else:
            self._items.add(value)

    @property
    def value(self) -> set:
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item) -> bool:
        return item in self._items

    def __iter__(self):
        return iter(self._items)


class MapAccum(Accumulator):
    """``MapAccum<K, V>``: keyed aggregation; values may themselves accumulate.

    ``accum((key, value))`` stores/overwrites by default; when constructed
    with ``value_accum`` (an accumulator factory), values are merged through
    that accumulator, matching GSQL's ``MapAccum<K, SumAccum<INT>>`` idiom.
    """

    def __init__(self, value_accum: Callable[[], Accumulator] | None = None):
        self._value_accum = value_accum
        self._map: dict = {}

    def accum(self, value) -> None:
        if not (isinstance(value, tuple) and len(value) == 2):
            raise ReproError("MapAccum expects (key, value) pairs")
        key, val = value
        if self._value_accum is None:
            self._map[key] = val
        else:
            if key not in self._map:
                self._map[key] = self._value_accum()
            self._map[key].accum(val)

    def put(self, key, val) -> None:
        self.accum((key, val))

    def get(self, key, default=None):
        entry = self._map.get(key, default)
        if isinstance(entry, Accumulator):
            return entry.value
        return entry

    @property
    def value(self) -> dict:
        if self._value_accum is None:
            return self._map
        return {k: v.value for k, v in self._map.items()}

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key) -> bool:
        return key in self._map

    def items(self):
        return self.value.items()


class HeapAccum(Accumulator):
    """Bounded top-k heap ordered by a sort key.

    ``HeapAccum<Tuple>(k, key ASC)`` in GSQL.  ``accum((sort_key, payload))``
    keeps the ``k`` entries with the smallest (``ascending=True``) or largest
    sort keys.  ``value`` returns entries sorted by key.  The global heap
    used for vector similarity joins on graph patterns (Sec. 5.4) is exactly
    this accumulator with ``ascending=True`` over distances.
    """

    def __init__(self, k: int, ascending: bool = True):
        if k <= 0:
            raise ReproError("HeapAccum requires k > 0")
        self.k = k
        self.ascending = ascending
        self._heap: list[tuple] = []
        self._counter = itertools.count()  # tie-break so payloads never compare

    def accum(self, value) -> None:
        if not (isinstance(value, tuple) and len(value) == 2):
            raise ReproError("HeapAccum expects (sort_key, payload) pairs")
        sort_key, payload = value
        # Keep-smallest uses a max-heap (negated keys) so the worst element
        # is at the root and can be evicted in O(log k).
        heap_key = -sort_key if self.ascending else sort_key
        entry = (heap_key, next(self._counter), payload)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry[0] > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    @property
    def value(self) -> list[tuple]:
        """Entries as ``(sort_key, payload)`` sorted best-first."""
        entries = [
            ((-hk if self.ascending else hk), payload) for hk, _, payload in self._heap
        ]
        entries.sort(key=lambda e: e[0], reverse=not self.ascending)
        return entries

    def __len__(self) -> int:
        return len(self._heap)


class VertexAccumMap:
    """Vertex-local accumulators: one lazily-created instance per vertex key."""

    def __init__(self, factory: Callable[[], Accumulator]):
        self._factory = factory
        self._per_vertex: dict = {}

    def for_vertex(self, vertex_key) -> Accumulator:
        accum = self._per_vertex.get(vertex_key)
        if accum is None:
            accum = self._factory()
            self._per_vertex[vertex_key] = accum
        return accum

    def get(self, vertex_key, default=None):
        accum = self._per_vertex.get(vertex_key)
        return default if accum is None else accum.value

    def items(self):
        return ((k, v.value) for k, v in self._per_vertex.items())

    def __len__(self) -> int:
        return len(self._per_vertex)


_ACCUM_FACTORIES: dict[str, Callable[..., Accumulator]] = {
    "SumAccum": SumAccum,
    "MinAccum": MinAccum,
    "MaxAccum": MaxAccum,
    "AvgAccum": AvgAccum,
    "OrAccum": OrAccum,
    "AndAccum": AndAccum,
    "BitwiseOrAccum": BitwiseOrAccum,
    "BitwiseAndAccum": BitwiseAndAccum,
    "ListAccum": ListAccum,
    "SetAccum": SetAccum,
    "MapAccum": MapAccum,
    "HeapAccum": HeapAccum,
    "Map": MapAccum,  # the paper writes `Map<VERTEX, FLOAT> @@disMap`
}


def make_accumulator(kind: str, *args, **kwargs) -> Accumulator:
    """Factory used by the GSQL executor for accumulator declarations."""
    try:
        factory = _ACCUM_FACTORIES[kind]
    except KeyError:
        raise ReproError(f"unknown accumulator type '{kind}'") from None
    return factory(*args, **kwargs)
