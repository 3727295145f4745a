"""Scalar lattice bisection: the test oracle of ``lobeq.solvers``.

One equation at a time, one Python float at a time: the brackets' bit
patterns are read with ``struct`` and bisected as Python integers, which
cannot overflow.  The array solver must take the same steps element by
element, so its roots are compared bit for bit and its iteration counts
exactly.
"""

from __future__ import annotations

import struct

from lobeq.solvers import RootResult


def bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def from_bits(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def bisect_decreasing(g, lo: float, hi: float) -> RootResult:
    """The largest float in ``[lo, hi)`` with ``g >= 0``, for a decreasing
    ``g`` with ``g(lo) >= 0 > g(hi)`` and positive ``lo`` and ``hi``; ``lo``
    after no step where ``hi`` is not above the float after ``lo``."""
    lo_bits, hi_bits = bits(lo), bits(hi)
    steps = 0
    while hi_bits - lo_bits > 1:
        steps += 1
        mid = lo_bits + (hi_bits - lo_bits) // 2
        if g(from_bits(mid)) >= 0.0:
            lo_bits = mid
        else:
            hi_bits = mid
    return RootResult(from_bits(lo_bits), steps)
