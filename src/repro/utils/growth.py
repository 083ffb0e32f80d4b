"""Capacity-doubling storage for arrays that only ever grow.

The serving engine's catalogue, vectors and scores, the statistics store's
counters and the MIPS indexes all append rows as new arrivals flood in.
Each keeps its rows in a buffer with spare capacity that doubles when it
runs out, so an append of ``b`` rows costs O(b) amortised instead of a
copy of everything stored so far.  This module holds the one growth
policy they share.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grown_capacity", "reserve", "RowBuffer"]

# Freshly allocated storage starts at this capacity and doubles.
MIN_CAPACITY = 64


def grown_capacity(current: int, needed: int) -> int:
    """Smallest doubling of ``current`` (at least ``MIN_CAPACITY``) that
    holds ``needed`` entries."""
    capacity = max(current, MIN_CAPACITY)
    while capacity < needed:
        capacity *= 2
    return capacity


def reserve(buffer: np.ndarray, used: int, needed: int, axis: int = 0) -> np.ndarray:
    """``buffer`` if it holds ``needed`` entries along ``axis``; otherwise
    a larger buffer (contents past ``used`` undefined) holding a copy of
    its first ``used`` entries."""
    if needed <= buffer.shape[axis]:
        return buffer
    shape = list(buffer.shape)
    shape[axis] = grown_capacity(buffer.shape[axis], needed)
    grown = np.empty(shape, dtype=buffer.dtype)
    live = (slice(None),) * axis + (slice(0, used),)
    grown[live] = buffer[live]
    return grown


class RowBuffer:
    """Append-only rows kept in a capacity-doubling buffer.

    :attr:`rows` is the live prefix, a view rather than a copy.
    :meth:`append` writes only into the spare rows past it, so arrays
    handed out by earlier :attr:`rows` reads never change.  The buffer
    starts as the array passed in, with no spare capacity, so the first
    append moves the rows into a buffer of their own.
    """

    __slots__ = ("_buffer", "_size")

    def __init__(self, rows: np.ndarray) -> None:
        self._buffer = rows
        self._size = len(rows)

    @property
    def rows(self) -> np.ndarray:
        return self._buffer[: self._size]

    def append(self, rows: np.ndarray) -> None:
        stop = self._size + len(rows)
        self._buffer = reserve(self._buffer, self._size, stop)
        self._buffer[self._size : stop] = rows
        self._size = stop

    def copy(self) -> "RowBuffer":
        """An independent copy with the same spare capacity."""
        clone = RowBuffer(np.empty_like(self._buffer))
        clone._buffer[: self._size] = self.rows
        clone._size = self._size
        return clone
