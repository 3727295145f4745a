"""Per-trade reference lookup and signature loop: the test oracle of
``lobeq.signature``.

One trade at a time, one Python float operation at a time, exactly as
``QuoteSeries.reference`` and ``trade_signature`` ran before the lookup
took arrays.  The array lookup must give the same values bit for bit and
fail on the same first trade with the same message; the array signature
sums in another order and is compared under a bound.
"""

from __future__ import annotations

import numpy as np

from lobeq.signature import REFERENCES


def micro_price(bid: float, ask: float, v_b: float, v_a: float) -> float:
    """Queue-imbalance weighted quote: pulled toward the thinner side."""
    if not bid < ask:
        raise ValueError(f"micro price needs bid < ask, got {bid} >= {ask}")
    if v_b < 0 or v_a < 0:
        raise ValueError("queue volumes must be nonnegative")
    if v_b == 0 and v_a == 0:
        raise ValueError("micro price undefined with both queues empty")
    return (bid * v_a + ask * v_b) / (v_a + v_b)


def mid_price(bid: float, ask: float) -> float:
    if not bid < ask:
        raise ValueError(f"mid price needs bid < ask, got {bid} >= {ask}")
    return 0.5 * (bid + ask)


def index_before(quotes, t_ns: int) -> int:
    """Index of the snapshot prevailing at ``t_ns`` (strictly before)."""
    return int(np.searchsorted(quotes.ts, t_ns, side="left")) - 1


def reference(quotes, t_ns: int, kind: str, trade_qty: int = 0) -> float:
    idx = index_before(quotes, t_ns)
    if idx < 0:
        raise ValueError(f"no reference snapshot before t = {t_ns}")
    bid, ask = quotes.bid[idx], quotes.ask[idx]
    if kind == "mid":
        if np.isnan(bid) or np.isnan(ask):
            raise ValueError(f"one-sided book at t = {t_ns}: mid undefined")
        return mid_price(bid, ask)
    if kind == "micro":
        if np.isnan(bid) or np.isnan(ask):
            raise ValueError(f"one-sided book at t = {t_ns}: micro undefined")
        return micro_price(bid, ask, quotes.bid_qty[idx], quotes.ask_qty[idx])
    if kind == "touched":
        quote = ask if trade_qty > 0 else bid
        if np.isnan(quote):
            raise ValueError(f"touched quote missing at t = {t_ns}")
        return float(quote)
    raise ValueError(f"unknown reference {kind!r}; expected one of {REFERENCES}")


def trade_signature(records, k_ns: int, eps: int, kind: str, quotes) -> float:
    """ST(k) of one cohort; ``eps`` is +1 (aggressive) or -1 (passive)."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not records:
        raise ValueError("trade_signature needs a nonempty record list")
    num = 0.0
    den = 0.0
    for rec in records:
        try:
            x = reference(quotes, rec.t_ns + k_ns, kind, rec.qty)
        except ValueError as exc:
            raise ValueError(
                f"reference lookup failed for trade of order {rec.order_id} "
                f"at t = {rec.t_ns} + k = {k_ns}: {exc}"
            ) from None
        num += rec.qty * (x - rec.price)
        den += abs(rec.qty)
    return eps * num / den
