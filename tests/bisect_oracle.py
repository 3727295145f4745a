"""Scalar bracketed bisection: the test oracle of ``lobeq.solvers``.

One equation at a time, one Python float operation at a time, exactly as
``bisect_decreasing`` ran before it was made array-native.  The array
solver must take the same steps element by element, so its roots are
compared bit for bit and its iteration counts exactly.
"""

from __future__ import annotations

from lobeq.solvers import _MAX_EXPANSIONS, MAX_ITER, REL_TOL, BracketError, RootResult


def bisect_decreasing(g, lo: float, max_iter: int = MAX_ITER) -> RootResult:
    """Root of a strictly decreasing ``g`` with ``g(lo) >= 0``.

    The upper bracket is expanded by doubling from ``lo`` until
    ``g(hi) < 0``; bisection stops at ``REL_TOL``, and a bracket still
    wider after ``max_iter`` steps is a ``BracketError``.
    """
    if lo <= 0.0:
        raise ValueError("bisect_decreasing requires a positive lower bracket")
    g_lo = g(lo)
    if g_lo == 0.0:
        return RootResult(lo, 0)
    if g_lo < 0.0:
        raise BracketError(f"g(lo) = {g_lo} < 0 at lo = {lo}: no root above lo", 0)

    hi = 2.0 * lo
    for _ in range(_MAX_EXPANSIONS):
        if g(hi) < 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise BracketError("upper bracket expansion failed to find a sign change", 0)

    for iters in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * mid:
            break
    else:
        raise BracketError(f"bisection did not converge in {max_iter} steps", 0)
    return RootResult(0.5 * (lo + hi), iters)
