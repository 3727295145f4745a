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

From level to level the kernel carries the surviving events' values: the
reach (jump size or buy magnitude) and the reference price move (jump
size or drift), one array when the two are the same, as for jumps.  On a
per-event book it also carries their row indices, to read the book each
event met; on a static book it carries none.  A level that keeps every
event copies nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accumulate_pnl"]


def _at_level(book: np.ndarray, rows, level: int):
    """Column ``level`` of a static book (``rows`` is None; a scalar) or of
    a per-event book at the events ``rows``."""
    return book[level] if rows is None else book[rows, level]


def _sums(gain: np.ndarray) -> tuple:
    """Sum and sum of squares of ``gain``, which is overwritten."""
    total = gain.sum()
    # not gain @ gain: a threaded BLAS dot ties the last bits to the core count
    return total, np.square(gain, out=gain).sum()


def _fill_stats(events, reach, ref, ahead, x):
    """Per-level (count, sum, sum of squares) of the gains ``x - ref`` of
    the probes filled by the events the mask ``events`` selects; an event
    fills level l while ``ahead < reach`` holds at every level up to l."""
    m = x.shape[-1]
    count = np.zeros(m, dtype=np.int64)
    total = np.zeros(m)
    total_sq = np.zeros(m)
    shared = ref is reach
    reach = reach[events]
    ref = reach if shared else ref[events]
    rows = None if x.ndim == 1 else np.flatnonzero(events)
    for level in range(m):
        keep = _at_level(ahead, rows, level) < reach
        kept = np.count_nonzero(keep)
        if kept == 0:
            break
        if kept < keep.size:
            reach = reach[keep]
            ref = reach if shared else ref[keep]
            rows = None if rows is None else rows[keep]
        count[level] = kept
        total[level], total_sq[level] = _sums(_at_level(x, rows, level) - ref)
    return count, total, total_sq


def _check_shapes(events: dict, book: dict) -> None:
    """Six 1-d event arrays of one length n, and three book arrays of one
    shape, ``(m,)`` or ``(n, m)`` with m >= 1."""
    n_shape = events["is_jump"].shape
    if len(n_shape) != 1:
        raise ValueError(f"is_jump must be 1-d, got shape {n_shape}")
    for name, a in events.items():
        if a.shape != n_shape:
            raise ValueError(f"{name} has shape {a.shape} but is_jump has shape {n_shape}; "
                             "every event array needs one length")
    x_shape = book["x"].shape
    if len(x_shape) not in (1, 2) or x_shape[-1] < 1 or x_shape[:-1] not in ((), n_shape):
        raise ValueError(f"x has shape {x_shape} but is_jump has shape {n_shape}; "
                         "the book is (m,) or (n, m) with m >= 1")
    for name, a in book.items():
        if a.shape != x_shape:
            raise ValueError(f"{name} has shape {a.shape} but x has shape {x_shape}; "
                             "the book's arrays need one shape")


def accumulate_pnl(is_jump, it_wins, jump_size, noise_buy, noise_mag, drift,
                   x, imm_ahead, nmm_ahead):
    """Per-level probe fill statistics over pre-drawn events.

    The six event arrays have one length n.  ``x`` holds the level
    distances, ``imm_ahead`` and ``nmm_ahead`` the depth queued ahead of
    the informed and the noise maker's probe; all three are ``(m,)`` or
    all ``(n, m)``, with m >= 1.  Other shapes raise ``ValueError``.
    Returns ``(imm_n, imm_sum, imm_sumsq, nmm_n, nmm_sum, nmm_sumsq)``,
    one value per level.
    """
    jump, wins, buy = (np.asarray(a, dtype=bool) for a in (is_jump, it_wins, noise_buy))
    b, q, d, x, imm_ahead, nmm_ahead = (
        np.asarray(a, dtype=float)
        for a in (jump_size, noise_mag, drift, x, imm_ahead, nmm_ahead))
    _check_shapes(dict(is_jump=jump, it_wins=wins, jump_size=b, noise_buy=buy,
                       noise_mag=q, drift=d),
                  dict(x=x, imm_ahead=imm_ahead, nmm_ahead=nmm_ahead))
    buys = buy & ~jump
    wins = jump & wins
    imm = zip(_fill_stats(wins, b, b, x, x),
              _fill_stats(buys, q, d, imm_ahead, x))
    nmm = zip(_fill_stats(jump, b, b, x, x),
              _fill_stats(buys, q, d, nmm_ahead, x))
    return tuple(from_jumps + from_buys for from_jumps, from_buys in (*imm, *nmm))
