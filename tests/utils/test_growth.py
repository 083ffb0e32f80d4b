"""Capacity-doubling storage: growth policy, reserve, and row buffers."""

import numpy as np

from repro.utils.growth import MIN_CAPACITY, RowBuffer, grown_capacity, reserve


def test_grown_capacity_doubles_from_the_minimum():
    assert grown_capacity(0, 1) == MIN_CAPACITY
    assert grown_capacity(100, 101) == 200
    assert grown_capacity(100, 401) == 800
    assert grown_capacity(500, 300) == 500


def test_reserve_keeps_the_live_prefix_along_any_axis():
    counts = np.arange(12).reshape(3, 4)
    assert reserve(counts, 4, 4, axis=1) is counts
    grown = reserve(counts, 3, 5, axis=1)
    assert grown.shape == (3, MIN_CAPACITY)
    np.testing.assert_array_equal(grown[:, :3], counts[:, :3])


def test_row_buffer_appends_in_place_without_touching_earlier_views():
    initial = np.arange(6.0).reshape(3, 2)
    rows = RowBuffer(initial)
    rows.append(np.ones((2, 2)))
    first = rows.rows
    rows.append(np.full((3, 2), 7.0))
    np.testing.assert_array_equal(initial, np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(first, np.vstack([initial, np.ones((2, 2))]))
    assert np.shares_memory(first, rows.rows)  # no reallocation
    assert rows.rows.shape == (8, 2)
    np.testing.assert_array_equal(rows.rows[5:], 7.0)


def test_row_buffer_copy_is_independent_and_keeps_capacity():
    rows = RowBuffer(np.zeros(3))
    rows.append(np.ones(2))
    clone = rows.copy()
    clone.rows[0] = 5.0
    assert rows.rows[0] == 0.0
    spare = clone.rows
    clone.append(np.full(4, 2.0))
    assert np.shares_memory(spare, clone.rows)
    np.testing.assert_array_equal(clone.rows, [5, 0, 0, 1, 1, 2, 2, 2, 2])
