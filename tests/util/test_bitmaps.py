"""Unit and property tests for sharing-bitmap helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitmaps import (
    bitmap_from_nodes,
    bitmap_mask,
    format_bitmap,
    iter_set_bits,
    popcount,
)


class TestBitmapMask:
    def test_zero_nodes(self):
        assert bitmap_mask(0) == 0

    def test_sixteen_nodes(self):
        assert bitmap_mask(16) == 0xFFFF

    def test_one_node(self):
        assert bitmap_mask(1) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitmap_mask(-1)


class TestBitmapFromNodes:
    def test_empty(self):
        assert bitmap_from_nodes([]) == 0

    def test_single(self):
        assert bitmap_from_nodes([3]) == 0b1000

    def test_duplicates_idempotent(self):
        assert bitmap_from_nodes([2, 2, 2]) == bitmap_from_nodes([2])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitmap_from_nodes([-1])


class TestIterSetBits:
    def test_empty(self):
        assert list(iter_set_bits(0)) == []

    def test_mixed(self):
        assert list(iter_set_bits(0b101001)) == [0, 3, 5]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(iter_set_bits(-1))


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_full_16(self):
        assert popcount(0xFFFF) == 16

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-5)


class TestFormatBitmap:
    def test_node_zero_leftmost(self):
        assert format_bitmap(0b0001, 4) == "1000"

    def test_width(self):
        assert len(format_bitmap(0, 16)) == 16


@given(st.sets(st.integers(min_value=0, max_value=31)))
def test_roundtrip_nodes_bitmap_nodes(nodes):
    """from_nodes and iter_set_bits are inverses."""
    bitmap = bitmap_from_nodes(nodes)
    assert set(iter_set_bits(bitmap)) == nodes
    assert popcount(bitmap) == len(nodes)


@given(st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=0, max_value=0xFFFF))
def test_popcount_disjoint_union_additive(a, b):
    """popcount(a | b) + popcount(a & b) == popcount(a) + popcount(b)."""
    assert popcount(a | b) + popcount(a & b) == popcount(a) + popcount(b)

