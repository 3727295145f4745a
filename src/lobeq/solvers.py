"""Bracketed bisection for the monotone implicit equations of the model.

Every implicit equation solved in this package is strictly monotone in the
unknown, so derivative-free bisection is unconditionally convergent.  The
solver expands the upper bracket by doubling until it straddles the root,
then bisects to a relative tolerance in the unknown or fails.

The solver is array-only: one call solves a 1-d array of independent
equations, one per element of the lower bracket, and each element takes
exactly the steps a scalar bisection from that bracket would take.  Finished
elements are masked, so a batch costs one evaluation of ``g`` per step of
its slowest element instead of one Python call per step per equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BracketError", "RootResult", "bisect_decreasing"]

MAX_ITER = 200
REL_TOL = 1e-12
_MAX_EXPANSIONS = 200


class BracketError(RuntimeError):
    """A root could not be bracketed or did not converge; ``index`` is the
    index of the first element at fault."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class RootResult:
    """``x`` is an array shaped like the lower bracket; ``iterations``
    counts bisection steps summed over the elements."""

    x: np.ndarray
    iterations: int


def bisect_decreasing(g, lo: np.ndarray) -> RootResult:
    """Roots of a strictly decreasing ``g`` with ``g(lo) >= 0``, elementwise.

    ``lo`` is a 1-d array of lower brackets.  ``g`` is always called with a
    float array shaped like ``lo`` and must act elementwise: element ``i``
    of its result depends on element ``i`` of its argument only.  The upper
    bracket is expanded by doubling from ``lo`` until ``g(hi) < 0``.  An
    element stops once ``hi - lo <= REL_TOL * mid`` and fails if it has not
    after ``MAX_ITER`` steps; one with ``g(lo) == 0`` returns ``lo`` after
    no steps.  Errors name the first element at fault.
    """
    lo = np.array(lo, dtype=float)
    bad = np.flatnonzero(lo <= 0.0)
    if bad.size:
        raise ValueError(
            f"bisect_decreasing requires a positive lower bracket (element {bad[0]})")
    g_lo = np.asarray(g(lo))
    bad = np.flatnonzero(g_lo < 0.0)
    if bad.size:
        i = bad[0]
        raise BracketError(
            f"g(lo) = {g_lo[i]} < 0 at lo = {lo[i]}: no root above lo (element {i})", int(i))
    at_lo = g_lo == 0.0

    hi = 2.0 * lo
    pending = ~at_lo
    for _ in range(_MAX_EXPANSIONS):
        if not pending.any():
            break
        pending &= ~(g(hi) < 0.0)
        lo = np.where(pending, hi, lo)
        hi = np.where(pending, 2.0 * hi, hi)
    bad = np.flatnonzero(pending)
    if bad.size:
        raise BracketError(
            f"upper bracket expansion failed to find a sign change (element {bad[0]})",
            int(bad[0]))

    iterations = 0
    active = ~at_lo
    for _ in range(MAX_ITER):
        n_active = int(np.count_nonzero(active))
        if not n_active:
            break
        iterations += n_active
        mid = 0.5 * (lo + hi)
        up = g(mid) >= 0.0
        lo = np.where(active & up, mid, lo)
        hi = np.where(active & ~up, mid, hi)
        active &= ~(hi - lo <= REL_TOL * mid)
    if active.any():
        i = int(np.argmax(active))
        raise BracketError(f"bisection did not converge to REL_TOL = {REL_TOL} in {MAX_ITER} "
                           f"steps: bracket [{lo[i]}, {hi[i]}] (element {i})", i)
    return RootResult(np.where(at_lo, lo, 0.5 * (lo + hi)), iterations)
