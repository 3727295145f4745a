"""Row-object MBO parse and replay, and a csv-module writer: the test
oracle of ``lobeq.mbo``.

``dumps`` writes a log with :class:`csv.writer` from its columns, as
``lobeq.mbo.write_csv`` did before the simulator wrote the log's text
itself: ``lobeq.mbo.row_encoder`` must give the same bytes.  ``parse``
validates a log one CSV row at a time and returns a list of
``EventLog.Row``; ``reconstruct`` replays any iterable of events with
``Fill`` and ``OrderLifecycle`` objects and list quote snapshots.  This is
the code ``lobeq.mbo`` ran before its parse and replay became columnar,
kept verbatim: the columnar versions must accept the same logs, raise the
same messages and return the same rows, fills, lifecycles, open ids and
quotes.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import insort
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from lobeq.mbo import (
    _FLAGS,
    ACTIONS,
    HEADER,
    SIDES,
    EventLog,
    MboParseError,
    MboReplayError,
)
from tables import event_log

_TEXTS = (None, None, np.array(ACTIONS, dtype=object), np.array(SIDES, dtype=object), None, None,
          np.array(["false", "true", ""], dtype=object), None)     # flag code -1 last
_BLOCK = 1 << 12


def dumps(events) -> str:
    """The CSV text of ``events`` (an ``EventLog`` or its rows):
    the header, then the rows as :class:`csv.writer` writes them from the
    log's columns, a block of rows at a time, with the coded fields decoded
    to their text, prices at 17 significant digits and labels None empty."""
    log = event_log(events)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(HEADER)
    for start in range(0, len(log), _BLOCK):
        ts, oid, action, side, price, qty, flag, label = (
            (col[start:start + _BLOCK] if text is None else text[col[start:start + _BLOCK]]).tolist()
            for col, text in zip(log.columns(), _TEXTS))
        writer.writerows(zip(ts, oid, action, side, (f"{p:.17g}" for p in price), qty, flag,
                             ("" if v is None else v for v in label)))
    return out.getvalue()


@dataclass(slots=True)
class Fill:
    """One execution row seen during replay."""

    ts_ns: int
    order_id: int
    side: str                    # side of the executed order
    price: float                 # execution price
    qty: int
    aggressor: bool
    participant_label: str | None


@dataclass(slots=True)
class OrderLifecycle:
    """An order from its add to its terminal event (or end of file)."""

    order_id: int
    side: str
    add_ts: int
    add_price: float
    add_qty: int
    participant_label: str | None
    price: float = 0.0                    # current resting price
    n_updates: int = 0
    executed_qty: int = 0
    terminal_ts: int | None = None
    terminal_kind: str | None = None      # "executed" | "canceled" | None
    fills: list = field(default_factory=list)


@dataclass
class Replay:
    lifecycles: dict                      # order_id -> last lifecycle for that id
    all_lifecycles: list                  # in add order
    open_order_ids: list                  # still resting at end of file
    fills: list                           # Fill rows in feed order
    quote_ts: list                        # distinct timestamps
    quote_bid: list
    quote_ask: list
    quote_bid_qty: list
    quote_ask_qty: list


def parse(source, tick: float | None = None) -> list[EventLog.Row]:
    """Read and validate a log; returns events in file order.

    Validation: exact header, field domains (finite prices), nondecreasing
    timestamps, referential integrity (modify/cancel/execute must reference
    a live order, and a modify keeps the order's side), execute volume
    within the resting quantity, and optional tick-multiple price checks.
    Errors name the offending row.  A ``tick`` must be positive and finite.
    """
    if tick is not None and not 0.0 < tick < math.inf:
        raise ValueError(f"tick must be positive and finite, got {tick}")
    with nullcontext(source) if hasattr(source, "read") else open(source, newline="") as fh:
        return _parse_rows(csv.reader(fh), tick)


def _parse_rows(rows, tick: float | None) -> list[EventLog.Row]:
    header = next(rows, None)
    if header is None:
        raise MboParseError("row 1: missing header")
    if tuple(header) != HEADER:
        raise MboParseError(f"row 1: header {header!r} does not match {','.join(HEADER)}")

    events: list[EventLog.Row] = []
    live: dict[int, tuple[int, str]] = {}    # order_id -> (remaining qty, side)
    last_ts = None
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(HEADER):
            raise MboParseError(f"row {lineno}: expected {len(HEADER)} fields, got {len(row)}")
        try:
            ts = int(row[0])
            oid = int(row[1])
        except ValueError as exc:
            raise MboParseError(f"row {lineno}: {exc}") from None
        action = row[2]
        if action not in ACTIONS:
            raise MboParseError(f"row {lineno}: unknown action {action!r}")
        side = row[3]
        if side not in SIDES:
            raise MboParseError(f"row {lineno}: unknown side {side!r}")
        try:
            price = float(row[4])
            qty = int(row[5])
        except ValueError as exc:
            raise MboParseError(f"row {lineno}: {exc}") from None
        if qty < 0:
            raise MboParseError(f"row {lineno}: negative qty {qty}")
        if not math.isfinite(price):
            raise MboParseError(f"row {lineno}: price {row[4]!r} is not finite")
        try:
            flag = _FLAGS[row[6].strip().lower()]
        except KeyError:
            raise MboParseError(f"row {lineno}: bad aggressor_flag {row[6]!r}") from None
        label = row[7] or None

        if last_ts is not None and ts < last_ts:
            raise MboParseError(f"row {lineno}: timestamp {ts} goes backwards")
        last_ts = ts
        if tick is not None:
            steps = price / tick
            if abs(steps - round(steps)) > 1e-6:
                raise MboParseError(f"row {lineno}: price {price} is not a multiple of tick {tick}")

        if action == "add":
            if oid in live:
                raise MboParseError(f"row {lineno}: order {oid} added twice")
            live[oid] = (qty, side)
        elif (resting_order := live.get(oid)) is None:
            raise MboParseError(f"row {lineno}: {action} references unknown order {oid}")
        else:
            resting, order_side = resting_order
            if side != order_side:
                if action == "modify":
                    raise MboParseError(
                        f"row {lineno}: modify moves order {oid} from {order_side} to {side}"
                    )
                raise MboParseError(
                    f"row {lineno}: {action} on {side} names order {oid}, "
                    f"which rests on {order_side}"
                )
            if action == "modify":
                live[oid] = (qty, side)
            elif action == "cancel":
                del live[oid]
            elif qty > resting:  # execute
                raise MboParseError(
                    f"row {lineno}: execute qty {qty} exceeds resting {resting} on order {oid}"
                )
            elif qty == resting:
                del live[oid]
            else:
                live[oid] = (resting - qty, side)

        events.append(EventLog.Row(ts, oid, action, side, price, qty, flag, label))
    return events


class _SideState:
    """Resting orders of one side: price-level FIFOs plus sorted prices."""

    def __init__(self, is_bid: bool):
        self.is_bid = is_bid
        self.queues: dict[float, deque] = {}
        self.prices: list[float] = []     # ascending

    def add(self, price: float, oid: int) -> None:
        dq = self.queues.get(price)
        if dq is None:
            dq = self.queues[price] = deque()
            insort(self.prices, price)
        dq.append(oid)

    def remove(self, price: float, oid: int) -> None:
        dq = self.queues[price]
        dq.remove(oid)
        if not dq:
            del self.queues[price]
            self.prices.remove(price)

    def front(self, price: float):
        dq = self.queues.get(price)
        return dq[0] if dq else None

    def best(self):
        if not self.prices:
            return None
        return self.prices[-1] if self.is_bid else self.prices[0]


def reconstruct(events) -> Replay:
    """Replay a validated event stream.

    Maintains price-time priority (executions must consume the front of
    their price queue), rebuilds every order lifecycle, and records a
    best-quote snapshot per distinct timestamp: the state after the last
    row carrying that timestamp, i.e. the state prevailing until the
    next one.  A book left crossed or locked at the end of a timestamp
    (best bid >= best ask) is rejected, naming the timestamp and the event.
    """
    sides = {"bid": _SideState(True), "ask": _SideState(False)}
    orders: dict[int, OrderLifecycle] = {}
    remaining: dict[int, int] = {}
    all_lifecycles: list[OrderLifecycle] = []
    fills: list[Fill] = []

    q_ts, q_bid, q_ask, q_bq, q_aq = [], [], [], [], []

    def push_snapshot(n, last):
        """Snapshot the book as the ``n``-th event (``last``, counting
        from 1) left it at the end of its timestamp."""
        ts = last.ts_ns
        bb = sides["bid"].best()
        ba = sides["ask"].best()
        if bb is not None and ba is not None and bb >= ba:
            raise MboReplayError(
                f"book crossed at ts_ns {ts}: best bid {bb} >= best ask {ba} "
                f"after event {n} of the feed ({last.action} of order {last.order_id})"
            )
        bq = sum(remaining[o] for o in sides["bid"].queues[bb]) if bb is not None else 0
        aq = sum(remaining[o] for o in sides["ask"].queues[ba]) if ba is not None else 0
        q_ts.append(ts)
        q_bid.append(bb)
        q_ask.append(ba)
        q_bq.append(bq)
        q_aq.append(aq)

    prev = None
    for n, ev in enumerate(events, start=1):
        if prev is not None and ev.ts_ns > prev.ts_ns:
            push_snapshot(n - 1, prev)
        prev = ev

        if ev.action == "add":
            lc = OrderLifecycle(
                order_id=ev.order_id, side=ev.side, add_ts=ev.ts_ns,
                add_price=ev.price, add_qty=ev.qty,
                participant_label=ev.participant_label, price=ev.price,
            )
            orders[ev.order_id] = lc
            all_lifecycles.append(lc)
            remaining[ev.order_id] = ev.qty
            sides[ev.side].add(ev.price, ev.order_id)
            continue

        lc = orders.get(ev.order_id)
        if lc is None or lc.terminal_kind is not None:
            raise MboReplayError(f"{ev.action} references dead order {ev.order_id}")
        state = sides[lc.side]

        if ev.action == "modify":
            lc.n_updates += 1
            # price change or size increase loses queue position
            if ev.price != lc.price or ev.qty > remaining[ev.order_id]:
                state.remove(lc.price, ev.order_id)
                state.add(ev.price, ev.order_id)
            lc.price = ev.price
            remaining[ev.order_id] = ev.qty
        elif ev.action == "cancel":
            if ev.qty != remaining[ev.order_id]:
                raise MboReplayError(
                    f"cancel qty {ev.qty} != remaining {remaining[ev.order_id]} "
                    f"on order {ev.order_id}"
                )
            state.remove(lc.price, ev.order_id)
            lc.terminal_ts = ev.ts_ns
            lc.terminal_kind = "canceled"
            del remaining[ev.order_id]
        else:  # execute
            if state.front(lc.price) != ev.order_id:
                raise MboReplayError(
                    f"execute on order {ev.order_id} which is not at the front "
                    f"of {lc.side}@{lc.price}"
                )
            if ev.aggressor_flag is not True and ev.price != lc.price:
                raise MboReplayError(
                    f"execute price {ev.price} != resting price {lc.price} "
                    f"on order {ev.order_id}"
                )
            if ev.qty > remaining[ev.order_id]:
                raise MboReplayError(
                    f"execute qty {ev.qty} exceeds resting {remaining[ev.order_id]} "
                    f"on order {ev.order_id}"
                )
            remaining[ev.order_id] -= ev.qty
            lc.executed_qty += ev.qty
            fill = Fill(ev.ts_ns, ev.order_id, lc.side, ev.price, ev.qty,
                        bool(ev.aggressor_flag), lc.participant_label)
            fills.append(fill)
            lc.fills.append(fill)
            if remaining[ev.order_id] == 0:
                state.remove(lc.price, ev.order_id)
                lc.terminal_ts = ev.ts_ns
                lc.terminal_kind = "executed"
                del remaining[ev.order_id]

    if prev is not None:
        push_snapshot(n, prev)

    open_ids = [oid for oid, lc in orders.items() if lc.terminal_kind is None]
    return Replay(
        lifecycles=orders, all_lifecycles=all_lifecycles,
        open_order_ids=open_ids, fills=fills,
        quote_ts=q_ts, quote_bid=q_bid, quote_ask=q_ask,
        quote_bid_qty=q_bq, quote_ask_qty=q_aq,
    )
