"""Conditional gains of a marginal order from a list of fill channels: the
break-even oracle of ``lobeq.equilibrium``.

The books are the zeros of these gains.  ``lobeq`` evaluates the
break-even condition only in closed form, through ``book_curves`` and
``shape_multi``, and keeps one scalar gain, ``gain_imm``, for the
acceptance suite.  The tests check both against this general form, which
sums any number of jump channels, in the operation order ``gain_imm``
keeps for its one channel.
"""

from __future__ import annotations

from lobeq.equilibrium import (
    ModelParams,
    MultiSourceParams,
    UnfillableLevelError,
    theta_bar,
)


def _gain(x: float, l_at_x: float, channels, r_total: float, volume, tb: float) -> float:
    """Conditional gain at distance ``x`` behind depth ``l_at_x``; each jump
    channel is a ``(weight, jump law)`` pair, the weight being the source's
    event fraction times the maker's fill probability after its jumps."""
    if x <= 0.0:
        raise ValueError("gain requires a positive distance x")
    p_noise = (1.0 - r_total) * volume.p_gt(l_at_x)
    denom = p_noise
    adverse = 0.0
    for weight, jump in channels:
        denom += weight * jump.p_gt(x)
        adverse += weight * jump.tail_expectation(x)
    if denom == 0.0:
        raise UnfillableLevelError(
            f"no fill channel open at x = {x} with depth {l_at_x} ahead"
        )
    return x - (adverse + tb * p_noise) / denom


def gain_imm(p: ModelParams, x: float, l_at_x: float) -> float:
    """The informed maker's gain: the jump channel discounted by f."""
    return _gain(x, l_at_x, [(p.f * p.r, p.jump)], p.r, p.volume, theta_bar(p))


def gain_nmm(p: ModelParams, x: float, l_at_x: float) -> float:
    """The noise maker's gain: the jump channel at full weight, since noise
    makers never win the cancellation race."""
    return _gain(x, l_at_x, [(p.r, p.jump)], p.r, p.volume, theta_bar(p))


def gain_imm_multi(mp: MultiSourceParams, j: int, x: float, l_at_x: float) -> float:
    """Conditional gain of a marginal order of the maker specialised in
    source ``j``: its own source's jump channel is discounted by f, every
    other source hits it at full weight."""
    if not 0 <= j < len(mp.sources):
        raise ValueError(f"source index {j} out of range")
    channels = [(s.r * (s.f if k == j else 1.0), s.jump) for k, s in enumerate(mp.sources)]
    return _gain(x, l_at_x, channels, mp.total_r, mp.volume, 0.0)
