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

The jumps are gathered once and scanned once for both makers, since the
informed maker's fills are the won subset of the noise maker's; the same
scan counts the jumps that sweep each level, which the fast path's
executed volume reads.  The buys are gathered once and scanned once per
maker.  From level to level a scan carries the surviving events' values:
the reach (jump size or buy magnitude) and the reference price move (jump
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


def _stats(m: int) -> tuple:
    """Per-level count, sum and sum of squares, all zero."""
    return np.zeros(m, dtype=np.int64), np.zeros(m), np.zeros(m)


def _add(stats: tuple, level: int, n: int, sums: tuple) -> None:
    count, total, total_sq = stats
    count[level] += n
    total[level] += sums[0]
    total_sq[level] += sums[1]


def _jump_fills(b, won, x, rows, imm, nmm, swept) -> None:
    """Add the probe fills of the jumps of sizes ``b`` (``won``: the race
    outcomes) to both makers' statistics, and their sweeps to ``swept``.

    At each level the jumps past it (x < B) fill the noise maker's probe,
    and those of them that won the race the informed maker's.  A jump of
    size exactly x reaches the level without filling, and is counted in
    ``swept`` only: on an increasing ``x`` it reaches no further level.
    """
    for level in range(x.shape[-1]):
        x_level = _at_level(x, rows, level)
        keep = x_level < b
        kept = np.count_nonzero(keep)
        if kept < keep.size:
            tied = won[x_level == b]
            if tied.size:
                n_won = np.count_nonzero(tied)
                swept[:, level] += tied.size - n_won, n_won
            if kept == 0:
                break
            b, won = b[keep], won[keep]
            rows = None if rows is None else rows[keep]
        n_won = np.count_nonzero(won)
        swept[:, level] += kept - n_won, n_won
        gain = _at_level(x, rows, level) - b
        won_gain = gain if n_won == kept else gain[won]
        sums = _sums(gain)
        _add(nmm, level, kept, sums)
        _add(imm, level, n_won, sums if won_gain is gain else _sums(won_gain))


def _buy_fills(q, d, ahead, x, rows, stats) -> None:
    """Add the probe fills of the buys of magnitudes ``q`` and drifts ``d``
    against the depths ``ahead`` of one maker's probes to its ``stats``."""
    for level in range(x.shape[-1]):
        keep = _at_level(ahead, rows, level) < q
        kept = np.count_nonzero(keep)
        if kept == 0:
            break
        if kept < keep.size:
            q, d = q[keep], d[keep]
            rows = None if rows is None else rows[keep]
        _add(stats, level, kept, _sums(_at_level(x, rows, level) - d))


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
                   x, imm_ahead, nmm_ahead, *, swept=None):
    """Per-level probe fill statistics over pre-drawn events.

    The six event arrays have one length n.  ``x`` holds the level
    distances, ``imm_ahead`` and ``nmm_ahead`` the depth queued ahead of
    the informed and the noise maker's probe; all three are ``(m,)`` or
    all ``(n, m)``, with m >= 1.  Other shapes raise ``ValueError``.
    Returns ``(imm_n, imm_sum, imm_sumsq, nmm_n, nmm_sum, nmm_sumsq)``,
    one value per level.

    ``swept``, a ``(2, m)`` int64 array when given, gets the jumps that
    reach each level (x <= B) after passing every nearer one (x < B), with
    the race lost in row 0 and won in row 1: on an increasing ``x``, the
    jumps that sweep the level.
    """
    jump, wins, buy = (np.asarray(a, dtype=bool) for a in (is_jump, it_wins, noise_buy))
    b, q, d, x, imm_ahead, nmm_ahead = (
        np.asarray(a, dtype=float)
        for a in (jump_size, noise_mag, drift, x, imm_ahead, nmm_ahead))
    _check_shapes(dict(is_jump=jump, it_wins=wins, jump_size=b, noise_buy=buy,
                       noise_mag=q, drift=d),
                  dict(x=x, imm_ahead=imm_ahead, nmm_ahead=nmm_ahead))
    m = x.shape[-1]
    imm, nmm = _stats(m), _stats(m)
    rows = (lambda events: None) if x.ndim == 1 else np.flatnonzero
    _jump_fills(b[jump], wins[jump], x, rows(jump), imm, nmm,
                np.zeros((2, m), dtype=np.int64) if swept is None else swept)
    buys = buy & ~jump
    q, d, buy_rows = q[buys], d[buys], rows(buys)
    _buy_fills(q, d, imm_ahead, x, buy_rows, imm)
    _buy_fills(q, d, nmm_ahead, x, buy_rows, nmm)
    return (*imm, *nmm)
