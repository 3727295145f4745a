"""Probe fill/P&L kernel of the Monte Carlo simulator.

Each maker type keeps a marginal "probe" order at the back of its own
break-even queue at every level of the ask book.  A jump of size B fills
the probes at distances x < B at P&L x - B (the informed maker's only when
the trader wins the race); a noise buy of magnitude q fills a probe whose
depth ahead is below q, at P&L x minus the trade's drift.

A fill at level l needs the fill condition at every level up to l, so the
kernel scans the levels in order and keeps, at each one, only the events
that filled the one before: a loop over levels, vectorized over events,
with O(n) temporaries.  The book is either static, ``(m,)`` arrays (the
fast path), or ``(n, m)`` arrays holding the book each event met (the
logged path, whose book moves with the efficient price).
"""

from __future__ import annotations

import numpy as np

__all__ = ["accumulate_pnl"]


def _at_level(book: np.ndarray, rows: np.ndarray, level: int):
    """Column ``level`` of a static book (a scalar) or of a per-event book
    at the events ``rows``."""
    return book[level] if book.ndim == 1 else book[rows, level]


def _fill_stats(rows, reach, ref, ahead, x):
    """Per-level (count, sum, sum of squares) of the gains ``x - ref`` of
    the probes the events ``rows`` fill; an event fills level l while
    ``ahead < reach`` holds at every level up to l."""
    m = x.shape[-1]
    count = np.zeros(m, dtype=np.int64)
    total = np.zeros(m)
    total_sq = np.zeros(m)
    reach = reach[rows]
    ref = ref[rows]
    for level in range(m):
        keep = _at_level(ahead, rows, level) < reach
        rows, reach, ref = rows[keep], reach[keep], ref[keep]
        if rows.size == 0:
            break
        gain = _at_level(x, rows, level) - ref
        count[level] = rows.size
        total[level] = gain.sum()
        # not gain @ gain: a threaded BLAS dot ties the last bits to the core count
        total_sq[level] = np.square(gain).sum()
    return count, total, total_sq


def accumulate_pnl(is_jump, it_wins, jump_size, noise_buy, noise_mag, drift,
                   x, imm_ahead, nmm_ahead):
    """Per-level probe fill statistics over pre-drawn events.

    ``x`` holds the level distances, ``imm_ahead`` and ``nmm_ahead`` the
    depth queued ahead of the informed and the noise maker's probe; all
    three are ``(m,)`` or ``(n, m)``.  Returns ``(imm_n, imm_sum,
    imm_sumsq, nmm_n, nmm_sum, nmm_sumsq)``, one value per level.
    """
    jump = np.asarray(is_jump, dtype=bool)
    buys = np.flatnonzero(np.asarray(noise_buy, dtype=bool) & ~jump)
    wins = np.flatnonzero(jump & np.asarray(it_wins, dtype=bool))
    b, q, d, x, imm_ahead, nmm_ahead = (
        np.asarray(a, dtype=float)
        for a in (jump_size, noise_mag, drift, x, imm_ahead, nmm_ahead))
    imm = zip(_fill_stats(wins, b, b, x, x),
              _fill_stats(buys, q, d, imm_ahead, x))
    nmm = zip(_fill_stats(np.flatnonzero(jump), b, b, x, x),
              _fill_stats(buys, q, d, nmm_ahead, x))
    return tuple(from_jumps + from_buys for from_jumps, from_buys in (*imm, *nmm))
