"""Tests for GSQL accumulators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.graph.accumulators import (
    AndAccum,
    AvgAccum,
    BitwiseAndAccum,
    BitwiseOrAccum,
    HeapAccum,
    ListAccum,
    MapAccum,
    MaxAccum,
    MinAccum,
    OrAccum,
    SetAccum,
    SumAccum,
    VertexAccumMap,
    make_accumulator,
)


class TestScalarAccums:
    def test_sum(self):
        a = SumAccum()
        a += 3
        a += 4
        assert a.value == 7

    def test_sum_strings(self):
        a = SumAccum(initial="")
        a += "ab"
        a += "cd"
        assert a.value == "abcd"

    def test_min_max(self):
        mn, mx = MinAccum(), MaxAccum()
        for v in (5, 2, 8):
            mn += v
            mx += v
        assert mn.value == 2
        assert mx.value == 8

    def test_min_empty_is_none(self):
        assert MinAccum().value is None

    def test_avg(self):
        a = AvgAccum()
        for v in (2, 4, 6):
            a += v
        assert a.value == 4
        assert a.count == 3
        assert AvgAccum().value == 0.0

    def test_or_and(self):
        o, n = OrAccum(), AndAccum()
        o += False
        n += True
        assert not o.value and n.value
        o += True
        n += False
        assert o.value and not n.value

    def test_bitwise(self):
        bo, ba = BitwiseOrAccum(), BitwiseAndAccum()
        bo += 0b101
        bo += 0b010
        ba += 0b111
        ba += 0b101
        assert bo.value == 0b111
        assert ba.value == 0b101


class TestContainerAccums:
    def test_list_extends_and_appends(self):
        a = ListAccum()
        a += 1
        a += [2, 3]
        assert a.value == [1, 2, 3]
        assert len(a) == 3

    def test_set_dedups(self):
        a = SetAccum()
        a += 1
        a += 1
        a += {2, 3}
        assert a.value == {1, 2, 3}
        assert 2 in a

    def test_map_overwrite(self):
        a = MapAccum()
        a += ("k", 1)
        a += ("k", 2)
        assert a.value == {"k": 2}
        assert a.get("k") == 2
        assert a.get("missing", -1) == -1

    def test_map_with_value_accum(self):
        a = MapAccum(value_accum=SumAccum)
        a += ("k", 1)
        a += ("k", 2)
        a += ("j", 5)
        assert a.value == {"k": 3, "j": 5}
        assert a.get("k") == 3

    def test_map_rejects_non_pairs(self):
        with pytest.raises(ReproError):
            MapAccum().accum(42)


class TestHeapAccum:
    def test_keeps_k_smallest(self):
        h = HeapAccum(3, ascending=True)
        for v in (5.0, 1.0, 4.0, 2.0, 3.0):
            h += (v, f"p{v}")
        assert [k for k, _ in h.value] == [1.0, 2.0, 3.0]

    def test_keeps_k_largest_descending(self):
        h = HeapAccum(2, ascending=False)
        for v in (1.0, 9.0, 5.0):
            h += (v, None)
        assert [k for k, _ in h.value] == [9.0, 5.0]

    def test_payloads_never_compared(self):
        class Opaque:  # not orderable
            pass

        h = HeapAccum(2)
        h += (1.0, Opaque())
        h += (1.0, Opaque())
        h += (1.0, Opaque())
        assert len(h) == 2

    def test_invalid_k(self):
        with pytest.raises(ReproError):
            HeapAccum(0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.integers(1, 10))
    def test_matches_sorted_prefix_property(self, values, k):
        h = HeapAccum(k)
        for v in values:
            h += (v, None)
        expected = sorted(values)[:k]
        assert [key for key, _ in h.value] == pytest.approx(expected)


class TestVertexAccumMap:
    def test_lazy_per_vertex(self):
        vmap = VertexAccumMap(SumAccum)
        vmap.for_vertex(("P", 1)).accum(2)
        vmap.for_vertex(("P", 1)).accum(3)
        vmap.for_vertex(("P", 2)).accum(7)
        assert vmap.get(("P", 1)) == 5
        assert vmap.get(("P", 2)) == 7
        assert vmap.get(("P", 3)) is None
        assert len(vmap) == 2
        assert dict(vmap.items()) == {("P", 1): 5, ("P", 2): 7}


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_accumulator("SumAccum"), SumAccum)
        assert isinstance(make_accumulator("HeapAccum", 5), HeapAccum)
        assert isinstance(make_accumulator("Map"), MapAccum)

    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            make_accumulator("BogusAccum")
