"""Bisection on the float lattice for the model's monotone equations.

Every implicit equation solved in this package is decreasing in the unknown
and comes with closed-form brackets ``g(lo) >= 0 > g(hi)``.  Positive
floats are ordered like their int64 bit patterns, so bisecting the patterns
ends at two adjacent floats within 63 steps: no tolerance, no step cap and
no convergence failure.  One call solves a 1-d array of independent
equations, each element taking exactly the steps a scalar bisection of its
bracket would take; finished elements are masked, so a batch costs one
evaluation of ``g`` per step of its slowest element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RootResult", "bisect_decreasing"]


@dataclass(frozen=True)
class RootResult:
    """``x`` is an array shaped like the lower bracket; ``iterations``
    counts bisection steps summed over the elements."""

    x: np.ndarray
    iterations: int


def bisect_decreasing(g, lo: np.ndarray, hi: np.ndarray) -> RootResult:
    """The largest float ``x`` in ``[lo, hi)`` with ``g(x) >= 0``,
    elementwise, for a decreasing ``g`` with ``g(lo) >= 0 > g(hi)``.

    ``lo`` and ``hi`` are 1-d arrays of positive brackets; ``hi`` may be
    inf.  ``g`` is called with a float array shaped like ``lo`` and must
    act elementwise.  It is never evaluated at a ``hi`` above ``lo``, and an
    element whose ``hi`` is not above the float after ``lo`` returns ``lo``
    after no step.
    """
    lo = np.array(lo, dtype=float).view(np.int64)
    hi = np.maximum(np.array(hi, dtype=float).view(np.int64), lo)    # a finished mid is lo
    iterations = 0
    while (active := hi - lo > 1).any():
        iterations += int(np.count_nonzero(active))
        mid = lo + (hi - lo) // 2
        up = g(mid.view(float)) >= 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return RootResult(lo.view(float), iterations)
