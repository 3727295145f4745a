"""Per-fill trade records: the test oracle of ``lobeq.signature.build_trade_records``.

One frozen ``TradeRecord`` per fill, built by grouping sweeps with
``itertools.groupby`` and finding predecessors with ``bisect_left``,
exactly as the trade records were built before they became a columnar
table.  It reads the row-object replay of ``mbo_oracle``: its ``Fill`` and
``OrderLifecycle`` objects, and the adds per level from
``replay.all_lifecycles``, which holds the same ``(add_ts, side,
add_price)`` in the same feed order as the replay's former add-event list.
The table built from ``lobeq.mbo.reconstruct`` of the same events must
agree with these records on every column, row for row and in the same
order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from lobeq.signature import QuoteSeries
from mbo_oracle import Replay


@dataclass(frozen=True, slots=True)
class TradeRecord:
    """One execution with its clustering inputs.

    ``qty`` is signed by the liquidity taker.  Sweep-level metrics
    (trade-to-trade duration, volume ratio at the touched best limit) are
    shared by every fill of the sweep; passive metrics come from the
    resting order's lifecycle.  ``None`` marks an undefined metric.
    """

    t_ns: int
    qty: int
    price: float
    order_id: int
    participant_label: str | None
    aggressor: bool
    trade_to_trade_ns: int | None = None
    volume_ratio: float | None = None
    trade_to_add_ns: int | None = None
    add_to_add_ns: int | None = None
    update_count: int | None = None


def build_trade_records(replay: Replay) -> tuple[list[TradeRecord], list[TradeRecord]]:
    """(aggressive records, passive records) from a replayed log.

    Aggressive fills are grouped into sweeps by their order id; the
    volume ratio compares the quantity executed at the pre-trade best
    quote of the swept side with the quantity that was resting there.
    """
    quotes = QuoteSeries(replay.quote_ts, replay.quote_bid, replay.quote_ask,
                         replay.quote_bid_qty, replay.quote_ask_qty)
    fill_ts = [f.ts_ns for f in replay.fills]

    # adds per (side, price), feed order; timestamps are nondecreasing
    adds: dict[tuple, list[int]] = {}
    for lc in replay.all_lifecycles:
        adds.setdefault((lc.side, lc.add_price), []).append(lc.add_ts)

    def since_last_trade(ts: int) -> int | None:
        idx = bisect_left(fill_ts, ts) - 1
        return ts - fill_ts[idx] if idx >= 0 else None

    aggressive: list[TradeRecord] = []
    for _oid, fills in groupby((f for f in replay.fills if f.aggressor),
                               key=lambda f: f.order_id):
        sweep = list(fills)
        first = sweep[0]
        sign = 1 if first.side == "bid" else -1     # buy sweeps rest on the bid side
        ttt = since_last_trade(first.ts_ns)
        ratio = None
        idx = quotes.index_before(first.ts_ns)
        if idx >= 0:
            best = quotes.ask[idx] if sign > 0 else quotes.bid[idx]
            avail = quotes.ask_qty[idx] if sign > 0 else quotes.bid_qty[idx]
            if not np.isnan(best) and avail > 0:
                at_best = sum(f.qty for f in sweep if f.price == best)
                if at_best > 0:
                    ratio = min(1.0, at_best / avail)
        for f in sweep:
            aggressive.append(TradeRecord(
                t_ns=f.ts_ns, qty=sign * f.qty, price=f.price,
                order_id=f.order_id, participant_label=f.participant_label,
                aggressor=True, trade_to_trade_ns=ttt, volume_ratio=ratio,
            ))

    passive: list[TradeRecord] = []
    for lc in replay.all_lifecycles:
        executed = [f for f in lc.fills if not f.aggressor]
        if not executed:
            continue
        tta = since_last_trade(lc.add_ts)
        level_adds = adds.get((lc.side, lc.add_price), [])
        idx = bisect_left(level_adds, lc.add_ts) - 1
        ata = lc.add_ts - level_adds[idx] if idx >= 0 else None
        sign = 1 if lc.side == "ask" else -1        # ask fills are buyer-initiated
        for f in executed:
            passive.append(TradeRecord(
                t_ns=f.ts_ns, qty=sign * f.qty, price=f.price,
                order_id=lc.order_id, participant_label=lc.participant_label,
                aggressor=False, trade_to_add_ns=tta, add_to_add_ns=ata,
                update_count=lc.n_updates,
            ))
    return aggressive, passive
