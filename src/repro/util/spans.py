"""Gathering several contiguous ranges of an array in one call."""

from __future__ import annotations

import numpy as np

__all__ = ["span_indices"]


def span_indices(starts, lens) -> np.ndarray:
    """Indices of the ranges ``[starts[k], starts[k] + lens[k])``, laid
    end to end in ``k`` order.

    ``a[span_indices(starts, lens)]`` equals concatenating the slices
    ``a[starts[k]:starts[k] + lens[k]]`` without a Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lens), lens) + np.arange(total)
