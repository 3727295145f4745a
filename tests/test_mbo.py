"""Event-log schema validation and book replay."""

import csv
import dataclasses
import io
import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import logged_oracle
import mbo_oracle
from mbo_oracle import dumps
from lobeq import mbo
from lobeq.equilibrium import ModelParams
from lobeq.laws import NormalVolume, Pareto
from lobeq.mbo import (
    HEADER,
    SIDES,
    EventLog,
    Fills,
    Lifecycles,
    MboParseError,
    MboReplayError,
    Quotes,
    parse,
    reconstruct,
    write_csv,
)
from lobeq.signature import QuoteSeries, TradeTable
from lobeq.simulator import SimConfig, run
from test_signature import ASK_PX, BID_PX, book_streams
from tables import csv_body, event_log, from_rows, logged_run, parsed
from test_simulator import logged_configs


def ev(ts, oid, action, side="ask", price=100.01, qty=10, flag=None, label=None):
    return EventLog.Row(ts, oid, action, side, price, qty, flag, label)


def parse_text(text, tick=None):
    return parse(io.StringIO(text), tick=tick)


def with_codes(**codes):
    """A two-row log of adds with the given coded columns in place of its own."""
    log = event_log([ev(10, 1, "add", qty=5), ev(11, 2, "add", qty=5)])
    return EventLog(**{**dict(zip(EventLog.fields(), log.columns())), **codes})


def lifecycle(replay, oid):
    """The last lifecycle of order ``oid``."""
    return list(replay.lifecycles)[np.flatnonzero(replay.lifecycles.order_id == oid)[-1]]


def open_orders(replay):
    """The ids of the orders resting at the end of the log, in the order of their adds."""
    lcs = replay.lifecycles
    return lcs.order_id[lcs.terminal_kind == -1].tolist()


HEADER_LINE = ",".join(HEADER)


@st.composite
def event_streams(draw):
    """Streams the parser accepts: nondecreasing timestamps, every
    modify/cancel/execute naming a live order on its own side, executes
    within the resting quantity, and no add, modify or execute of 0 units."""
    events, live, ts = [], {}, 0
    for oid_next in range(1, draw(st.integers(0, 25)) + 1):
        ts += draw(st.integers(0, 10**9))
        action = draw(st.sampled_from(["add", "modify", "cancel", "execute"] if live else ["add"]))
        if action == "add":
            oid, side, qty = oid_next, draw(st.sampled_from(SIDES)), draw(st.integers(1, 10**12))
        else:
            oid = draw(st.sampled_from(sorted(live)))
            resting, side = live.pop(oid)
            qty = {"modify": draw(st.integers(1, 10**12)), "cancel": resting,
                   "execute": draw(st.integers(1, resting))}[action]
        if action in ("add", "modify"):
            live[oid] = (qty, side)
        elif action == "execute" and qty < resting:
            live[oid] = (resting - qty, side)
        events.append(EventLog.Row(
            ts, oid, action, side,
            draw(st.floats(allow_nan=False, allow_infinity=False)), qty,
            draw(st.sampled_from([None, True, False])),
            draw(st.none() | st.text(st.sampled_from('INTMab ,"#\n'), min_size=1, max_size=4)),
        ))
    return events


#: two levels a side that never cross, so that orders queue at them
QUEUE_PX = {"bid": (99.5, 99.75), "ask": (100.25, 100.5)}


@st.composite
def queue_streams(draw, min_size=0):
    """Valid feeds of deep queues at a few price levels: several orders
    queued at one price, modifies that lose their place (a new price or a
    larger size) mixed with ones that keep it (a smaller size), executes
    at the front of a queue, several rows per timestamp, and order ids
    reused after their order died; empty and one-row feeds among them.  No
    add, modify or execute moves 0 units."""
    events, ts, next_id = [], 0, 1
    queues = {(side, px): [] for side, pxs in QUEUE_PX.items() for px in pxs}
    live, dead = {}, []                   # id -> [side, price, qty]; ids free to reuse
    for _ in range(draw(st.integers(min_size, 30))):
        ts += draw(st.sampled_from([0, 0, 1]))
        kind = draw(st.sampled_from(["add", "modify", "cancel", "execute"] if live else ["add"]))
        if kind == "add":
            if dead and draw(st.booleans()):
                oid = dead.pop(draw(st.integers(0, len(dead) - 1)))
            else:
                oid, next_id = next_id, next_id + 1
            side = draw(st.sampled_from(SIDES))
            live[oid] = [side, draw(st.sampled_from(QUEUE_PX[side])), draw(st.integers(1, 4))]
            queues[tuple(live[oid][:2])].append(oid)
            events.append(ev(ts, oid, "add", *live[oid], label=draw(st.sampled_from([None, "NMM"]))))
            continue
        if kind == "execute":
            oid = draw(st.sampled_from([queue[0] for queue in queues.values() if queue]))
        else:
            oid = draw(st.sampled_from(sorted(live)))
        side, px, qty = live[oid]
        if kind == "modify":
            new_px, new_qty = draw(st.sampled_from(QUEUE_PX[side])), draw(st.integers(1, 6))
            if new_px != px or new_qty > qty:           # to the back of the new level's queue
                queues[side, px].remove(oid)
                queues[side, new_px].append(oid)
            live[oid] = [side, new_px, new_qty]
            events.append(ev(ts, oid, "modify", side, new_px, new_qty))
            continue
        take = qty if kind == "cancel" else draw(st.integers(1, qty))
        events.append(ev(ts, oid, kind, side, px, take, flag=False if kind == "execute" else None))
        live[oid][2] -= take
        if kind == "cancel" or take == qty:
            queues[side, px].remove(oid)
            del live[oid]
            dead.append(oid)
    return events


class TestParse:
    def test_empty_body(self):
        assert list(parse_text(HEADER_LINE + "\n")) == []

    def test_empty_export_is_header_only(self):
        assert dumps([]) == HEADER_LINE + "\r\n"

    def test_missing_header(self):
        with pytest.raises(MboParseError, match="row 1"):
            parse_text("")

    def test_wrong_header(self):
        with pytest.raises(MboParseError, match="header"):
            parse_text("time,oid,act,side,px,qty,fl,lb\n")

    def test_roundtrip(self):
        events = [
            ev(10, 1, "add", qty=5, label="NMM"),
            ev(20, 2, "add", side="bid", price=99.99, qty=7, label="IMM"),
            ev(30, 1, "execute", qty=5, flag=False),
            ev(40, 2, "modify", side="bid", price=99.98, qty=9),
            ev(55, 2, "cancel", side="bid", price=99.98, qty=9),
        ]
        assert list(parse_text(dumps(events))) == events

    @given(event_streams())
    def test_roundtrip_property(self, events):
        assert list(parse_text(dumps(events))) == events

    def test_write_to_path(self, tmp_path):
        events = [ev(10, 1, "add", qty=5)]
        path = tmp_path / "log.csv"
        write_csv([csv_body(event_log(events))], path)
        assert list(parse(path)) == events

    @pytest.mark.parametrize("row,message", [
        ("10,1,trade,ask,100.01,5,,", "unknown action"),
        ("10,1,add,mid,100.01,5,,", "unknown side"),
        ("10,1,add,ask,100.01,-5,,", "negative qty"),
        ("10,1,add,ask,100.01,5,maybe,", "aggressor_flag"),
        ("ten,1,add,ask,100.01,5,,", "row 2"),
        ("10,1,add,ask,100.01,5,,,extra", "expected 8 fields"),
        ("10,1,add,ask,nan,5,,", "row 2: price 'nan' is not finite"),
        ("10,1,add,ask,inf,5,,", "row 2: price 'inf' is not finite"),
        ("10,1,add,ask,-inf,5,,", "row 2: price '-inf' is not finite"),
    ])
    def test_bad_rows(self, row, message):
        with pytest.raises(MboParseError, match=message):
            parse_text(f"{HEADER_LINE}\n{row}\n")

    @pytest.mark.parametrize("row, message", [
        ("10,2,add,ask,100.01,0,,", "row 3: zero qty on add"),
        ("11,1,execute,ask,100.01,0,false,", "row 3: zero qty on execute"),
        ("11,1,modify,ask,100.01,0,,", "row 3: zero qty on modify; use cancel"),
    ])
    def test_zero_qty_only_on_cancel(self, row, message):
        # an order leaves the book by a cancel, which parse leaves to the
        # replay's remaining-quantity check
        text = f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n{row}\n"
        with pytest.raises(MboParseError, match=f"^{message}$"):
            parse_text(text)
        cancel = f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n11,1,cancel,ask,100.01,0,,\n"
        assert len(parse_text(cancel)) == 2

    def test_modify_cannot_change_side(self):
        text = (f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n"
                "11,1,modify,bid,100.01,5,,\n")
        with pytest.raises(MboParseError, match="row 3: modify moves order 1 from ask to bid"):
            parse_text(text)

    def test_cancel_must_match_side(self):
        text = (f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n"
                "11,1,cancel,bid,100.01,5,,\n")
        with pytest.raises(MboParseError,
                           match="row 3: cancel on bid names order 1, which rests on ask"):
            parse_text(text)

    def test_execute_must_match_side(self):
        text = (f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n"
                "11,1,execute,bid,100.01,2,false,\n")
        with pytest.raises(MboParseError,
                           match="row 3: execute on bid names order 1, which rests on ask"):
            parse_text(text)

    def test_partial_execute_keeps_side(self):
        text = (f"{HEADER_LINE}\n10,1,add,bid,99.99,5,,\n"
                "11,1,execute,bid,99.99,2,false,\n12,1,modify,bid,99.99,1,,\n")
        assert [e.action for e in parse_text(text)] == ["add", "execute", "modify"]

    def test_backwards_timestamp_names_row(self):
        text = f"{HEADER_LINE}\n20,1,add,ask,100.01,5,,\n10,2,add,ask,100.02,5,,\n"
        with pytest.raises(MboParseError, match="row 3"):
            parse_text(text)

    def test_dangling_reference_names_row(self):
        text = f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n20,9,cancel,ask,100.01,5,,\n"
        with pytest.raises(MboParseError, match="row 3.*unknown order 9"):
            parse_text(text)

    def test_double_add_rejected(self):
        text = f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n20,1,add,ask,100.02,5,,\n"
        with pytest.raises(MboParseError, match="added twice"):
            parse_text(text)

    def test_execute_exceeding_rest(self):
        text = f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n20,1,execute,ask,100.01,9,false,\n"
        with pytest.raises(MboParseError, match="exceeds resting"):
            parse_text(text)

    def test_tick_validation(self):
        good = f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n"
        assert len(parse_text(good, tick=0.01)) == 1
        bad = f"{HEADER_LINE}\n10,1,add,ask,100.013,5,,\n"
        with pytest.raises(MboParseError, match="multiple of tick"):
            parse_text(bad, tick=0.01)
        for price in ("nan", "inf"):
            bad = f"{HEADER_LINE}\n10,1,add,ask,{price},5,,\n"
            with pytest.raises(MboParseError, match="row 2: price .* is not finite"):
                parse_text(bad, tick=0.01)

    @pytest.mark.parametrize("tick", [float("inf"), -0.01, float("nan"), 0.0])
    def test_tick_must_be_positive_and_finite(self, tick):
        good = f"{HEADER_LINE}\n10,1,add,ask,100.01,5,,\n"
        with pytest.raises(ValueError, match=f"tick must be positive and finite, got {tick}"):
            parse_text(good, tick=tick)


class TestReconstruct:
    def test_add_then_cancel(self):
        replay = reconstruct(parsed([
            ev(10, 1, "add", qty=5, label="NMM"),
            ev(30, 1, "cancel", qty=5),
        ]))
        lc = lifecycle(replay, 1)
        assert lc.terminal_kind == "canceled"
        assert lc.terminal_ts == 30
        assert lc.n_updates == 0
        assert open_orders(replay) == []

    def test_add_modify_execute(self):
        replay = reconstruct(parsed([
            ev(10, 1, "add", qty=5),
            ev(20, 1, "modify", qty=8),
            ev(30, 1, "execute", qty=8, flag=False),
        ]))
        lc = lifecycle(replay, 1)
        assert lc.n_updates == 1
        assert lc.terminal_kind == "executed"
        assert lc.executed_qty == 8

    def test_replay_tables_keep_the_log_codes(self):
        replay = reconstruct(parsed([
            ev(10, 1, "add", "bid", 100.0, 5),
            ev(10, 2, "add", "ask", 100.01, 5),
            ev(11, 3, "add", "ask", 100.02, 4),
            ev(20, 1, "execute", "bid", 100.0, 5, flag=False),
            ev(30, 2, "cancel", "ask", 100.01, 5),
        ]))
        lcs, fills = replay.lifecycles, replay.fills
        assert [col.dtype for col in (lcs.side, lcs.terminal_kind)] == [np.int8] * 2
        assert lcs.side.tolist() == [SIDES.index("bid"), SIDES.index("ask"), SIDES.index("ask")]
        assert lcs.side[fills.lifecycle].tolist() == [SIDES.index("bid")]
        # rows decode the codes
        assert [(lc.side, lc.terminal_kind) for lc in lcs] == [
            ("bid", "executed"), ("ask", "canceled"), ("ask", None)]

    def test_open_at_eof_reported(self):
        replay = reconstruct(parsed([ev(10, 1, "add", qty=5)]))
        assert open_orders(replay) == [1]
        assert lifecycle(replay, 1).terminal_kind is None

    def test_fifo_front_enforced(self):
        events = [
            ev(10, 1, "add", qty=5),
            ev(11, 2, "add", qty=5),
            ev(20, 2, "execute", qty=5, flag=False),   # order 1 is in front
        ]
        with pytest.raises(MboReplayError, match="not at the front"):
            reconstruct(parsed(events))

    def test_modify_price_loses_priority(self):
        replay = reconstruct(parsed([
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=5, price=100.02),
            ev(12, 2, "modify", qty=5, price=100.01),  # joins behind order 1
            ev(20, 1, "execute", qty=5, flag=False, price=100.01),
            ev(21, 2, "execute", qty=5, flag=False, price=100.01),
        ]))
        assert lifecycle(replay, 2).terminal_kind == "executed"

    def test_modify_size_increase_loses_priority(self):
        events = [
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=5, price=100.01),
            ev(12, 1, "modify", qty=9, price=100.01),  # back of the queue now
            ev(20, 1, "execute", qty=9, flag=False, price=100.01),
        ]
        with pytest.raises(MboReplayError, match="not at the front"):
            reconstruct(parsed(events))

    def test_modify_size_decrease_keeps_priority(self):
        replay = reconstruct(parsed([
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=5, price=100.01),
            ev(12, 1, "modify", qty=3, price=100.01),
            ev(20, 1, "execute", qty=3, flag=False, price=100.01),
        ]))
        assert lifecycle(replay, 1).terminal_kind == "executed"

    def test_cancel_qty_must_match(self):
        events = [ev(10, 1, "add", qty=5), ev(20, 1, "cancel", qty=3)]
        with pytest.raises(MboReplayError, match="cancel qty"):
            reconstruct(parsed(events))

    def test_passive_execute_price_must_match(self):
        events = [ev(10, 1, "add", qty=5, price=100.01),
                  ev(20, 1, "execute", qty=5, price=100.02, flag=False)]
        with pytest.raises(MboReplayError, match="resting price"):
            reconstruct(parsed(events))

    def test_aggressor_execute_price_may_differ(self):
        # a marketable order rests at its limit but fills at deeper prices
        replay = reconstruct(parsed([
            ev(10, 1, "add", qty=5, price=100.01, label="NMM"),
            ev(20, 2, "add", side="bid", price=100.03, qty=5, label="NT"),
            ev(20, 1, "execute", qty=5, price=100.01, flag=False),
            ev(20, 2, "execute", side="bid", qty=5, price=100.01, flag=True),
        ]))
        assert lifecycle(replay, 2).terminal_kind == "executed"
        fills = [f for f in replay.fills if f.aggressor]
        assert fills[0].price == 100.01

    def test_quote_snapshots_per_timestamp(self):
        replay = reconstruct(parsed([
            ev(10, 1, "add", side="bid", price=99.99, qty=4),
            ev(10, 2, "add", side="ask", price=100.01, qty=6),
            ev(20, 3, "add", side="ask", price=100.01, qty=2),
            ev(30, 2, "execute", qty=6, flag=False, price=100.01),
        ]))
        assert replay.quotes.ts_ns.tolist() == [10, 20, 30]
        assert replay.quotes.bid.tolist() == [99.99, 99.99, 99.99]
        assert replay.quotes.ask.tolist() == [100.01, 100.01, 100.01]
        assert replay.quotes.ask_qty.tolist() == [6, 8, 2]

    @pytest.mark.parametrize("bid_price", [100.02, 100.01])
    def test_crossed_book_at_timestamp_end_rejected(self, bid_price):
        events = [
            ev(10, 1, "add", qty=5, price=100.01),
            ev(20, 2, "add", side="bid", qty=3, price=bid_price),
            ev(30, 1, "cancel", qty=5, price=100.01),
        ]
        with pytest.raises(MboReplayError,
                           match=rf"book crossed at ts_ns 20: best bid {bid_price} >= best ask "
                                 r"100.01 after event 2 of the feed \(add of order 2\)"):
            reconstruct(parsed(events))
        # the same book crossed at the last timestamp of the feed
        with pytest.raises(MboReplayError, match="at ts_ns 20"):
            reconstruct(parsed(events[:2]))

    def test_unknown_side_rejected(self):
        # a side outside SIDES has no code; it once replayed on the ask book
        with pytest.raises(ValueError, match=r"^EventLog row 1: side 'mid' is not one of "
                                             r"\('bid', 'ask'\)$"):
            event_log([ev(1, 1, "add", qty=5), ev(2, 2, "add", side="mid", qty=5)])
        with pytest.raises(ValueError, match=r"^EventLog row 1: side code 2 is not one of 0..1$"):
            with_codes(side=[1, 2])

    def test_unknown_action_rejected(self):
        # an action outside ACTIONS has no code; it once replayed as an execute
        with pytest.raises(ValueError, match=r"^EventLog row 1: action 'trade' is not one of "
                                             r"\('add', 'modify', 'cancel', 'execute'\)$"):
            event_log([ev(1, 1, "add", qty=5), ev(2, 1, "trade", qty=5, flag=False)])
        with pytest.raises(ValueError, match=r"^EventLog row 1: action code 4 is not one of 0..3$"):
            with_codes(action=[0, 4])

    def test_coded_columns_take_integer_codes_only(self):
        # a float flag (1.0 hashes like True) and text were once encoded
        # without a word; empty columns of any dtype are no codes to check
        for name, column in (("aggressor_flag", [1.0, 0.0]), ("action", ["add", "add"]),
                             ("side", [None, None]), ("side", [True, False])):
            with pytest.raises(ValueError, match=f"^EventLog {name} must be integer codes, "
                                                 f"got dtype {np.asarray(column).dtype}$"):
                with_codes(**{name: column})
        empty = EventLog(*[np.array([])] * len(EventLog.fields()))
        assert len(empty) == 0 and empty.action.dtype == np.int8

    @pytest.mark.parametrize("call", [reconstruct])
    def test_rows_are_not_a_log(self, call):
        # rows go through tests/tables.py; a list once passed as a log
        rows = [ev(10, 1, "add", qty=5)]
        rule = f"^{call.__name__} replays only a log that parse returned, got "
        with pytest.raises(TypeError, match=rule + "list$"):
            call(rows)
        with pytest.raises(TypeError, match=rule + "Quotes$"):
            call(reconstruct(parsed(rows)).quotes)

    def test_level_conservation(self):
        # executed + canceled + resting == added, per price level
        events = [
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=7, price=100.01),
            ev(20, 1, "execute", qty=5, flag=False, price=100.01),
            ev(25, 2, "execute", qty=3, flag=False, price=100.01),
            ev(30, 2, "cancel", qty=4, price=100.01),
        ]
        replay = reconstruct(parsed(events))
        executed = sum(f.qty for f in replay.fills)
        added = 5 + 7
        canceled = 4
        assert executed + canceled == added
        assert open_orders(replay) == []


# -- every table type against its rows ---------------------------------------


TABLES = (EventLog, Fills, Lifecycles, Quotes, QuoteSeries, TradeTable)
INT64 = np.iinfo(np.int64)


def column(dtype):
    """Values of one column of ``COLUMNS`` dtype ``dtype``: codes for a tuple
    of values (-1 where it ends in None), else values of that dtype."""
    if isinstance(dtype, tuple):
        return st.integers(-1 if dtype[-1] is None else 0, len(dtype) - 1 - (dtype[-1] is None))
    return {np.int64: st.integers(INT64.min, INT64.max),
            np.float64: st.floats(),
            bool: st.booleans(),
            object: st.none() | st.text(max_size=3) | st.integers(-10**20, 10**20)}[dtype]


@st.composite
def tables(draw, cls):
    """A ``cls`` table of random columns drawn from its ``COLUMNS``."""
    n = draw(st.integers(0, 12))
    columns = {name: np.array(draw(st.lists(column(dtype), min_size=n, max_size=n)),
                              dtype=np.int8 if isinstance(dtype, tuple) else dtype)
               for name, dtype in cls.COLUMNS.items()}
    if issubclass(cls, QuoteSeries):                # strictly increasing timestamps
        columns["ts_ns"] = np.array(sorted(draw(st.lists(column(np.int64), min_size=n,
                                                         max_size=n, unique=True))))
    return cls(**columns)


def same_columns(got, want):
    """Columns of one dtype each and equal bytes (equal values for objects)."""
    for name, a, b in zip(want.fields(), got.columns(), want.columns()):
        assert a.dtype == b.dtype, name
        assert (a.tolist() == b.tolist() if b.dtype == object
                else a.tobytes() == b.tobytes()), name


def same_rows(got, want):
    """Rows of one type and equal values, nan equal to nan."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert all(x == y or x != x and y != y for x, y in zip(g, w)), (g, w)


class TestTableTypes:
    @pytest.mark.parametrize("cls", TABLES, ids=lambda cls: cls.__name__)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_rows_rebuild_the_columns(self, cls, data):
        t = data.draw(tables(cls))
        rows = list(t)
        assert cls.Row._fields == cls.fields() and all(type(r)._fields == cls.fields()
                                                          for r in rows)
        same_columns(from_rows(cls, rows), t)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t))),
                        dtype=bool)
        same_rows(list(t.take(mask)), [row for row, keep in zip(rows, mask) if keep])

    @settings(max_examples=60)
    @given(events=book_streams())
    def test_passive_volume_reads_alike_as_rows_and_columns(self, events):
        # the rows' sum is what the mbo_log benchmark check computes
        fills = reconstruct(parsed(events)).fills
        assert (sum(f.qty for f in fills if not f.aggressor)
                == sum(fills.qty[~fills.aggressor].tolist()))


# -- parity with the row-object parser and replay ---------------------------


def outcome(fn, *args, **kwargs):
    """("ok", result) or (error class name, message) of one call."""
    try:
        return "ok", fn(*args, **kwargs)
    except (MboParseError, MboReplayError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_replay(got, want, events):
    """The columnar replay holds the oracle's fills (each owned by the same
    lifecycle), lifecycles, open order ids and quotes.  ``terminal_ts`` is
    the oracle's where the lifecycle ended and 0 where the order rests."""
    lcs = list(got.lifecycles)
    assert [(f.ts_ns, lcs[f.lifecycle].order_id, lcs[f.lifecycle].side, f.price, f.qty,
             f.aggressor, lcs[f.lifecycle].participant_label)
            for f in got.fills] == [dataclasses.astuple(f) for f in want.fills]
    assert got.fills.row.tolist() == [i for i, e in enumerate(events) if e.action == "execute"]
    owner = {id(f): k for k, lc in enumerate(want.all_lifecycles) for f in lc.fills}
    assert got.fills.lifecycle.tolist() == [owner[id(f)] for f in want.fills]
    assert [name for name, col in zip(Lifecycles.fields(), got.lifecycles.columns())
            if col.dtype == object] == ["participant_label"]
    ended = got.lifecycles.terminal_kind != -1
    assert got.lifecycles.terminal_ts[~ended].tolist() == [0] * np.count_nonzero(~ended)
    assert [lc._replace(terminal_ts=lc.terminal_ts if lc.terminal_kind else None)
            for lc in lcs] == [Lifecycles.Row(*(getattr(lc, name) for name in
                                                Lifecycles.fields()))
                               for lc in want.all_lifecycles]
    assert sorted(open_orders(got)) == sorted(want.open_order_ids)
    quotes = [tuple(None if isinstance(v, float) and math.isnan(v) else v for v in q)
              for q in got.quotes]
    assert quotes == list(zip(want.quote_ts, want.quote_bid, want.quote_ask,
                              want.quote_bid_qty, want.quote_ask_qty))


def assert_replay_parity(events):
    """The replay of ``events`` written and parsed against the oracle's
    replay of them, where ``parse`` accepts them."""
    status, log = outcome(parsed, events)
    if status != "ok":
        return
    got, want = outcome(reconstruct, log), outcome(mbo_oracle.reconstruct, events)
    assert got[0] == want[0] and (got[0] == "ok" or got[1] == want[1]), (got, want)
    if got[0] == "ok":
        assert_same_replay(got[1], want[1], list(events))


def assert_parse_parity(text, tick=None):
    got = outcome(parse, io.StringIO(text), tick=tick)
    want = outcome(mbo_oracle.parse, io.StringIO(text), tick=tick)
    if got[0] == "ok":
        got = "ok", list(got[1])
    assert got == want


LOGGED = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                     tick=0.01, offset_d=0.0, lambda_i=0.15, lambda_u=0.85)


def with_edge_rows(events):
    """``events`` followed by adds of new orders priced 0.0, -0.0 (two texts
    of one float key) and 0.1 + 0.2 (17 digits), one for each of the four
    labels the simulator writes."""
    ts = max((e.ts_ns for e in events), default=0)
    oid = max((e.order_id for e in events), default=0) + 1
    edge = zip((0.0, -0.0, 0.1 + 0.2, 100.01), ("IT", "NT", "IMM", "NMM"))
    return [*events, *(ev(ts, oid + k, "add", price=price, label=label)
                       for k, (price, label) in enumerate(edge))]


def assert_encodes(events):
    """The row encoder writes ``events`` byte for byte as the csv-module
    oracle does, and ``parse`` reads that text back to the same columns."""
    log = event_log(events)
    text = mbo.HEADER_LINE + csv_body(log)
    assert text == dumps(log)
    assert ",0,10,,IT\r\n" in text and ",-0,10,,NT\r\n" in text
    assert ",0.30000000000000004,10,,IMM\r\n" in text
    same_columns(parse(io.StringIO(text, newline="")), log)


class TestEncoder:
    """The one row encoder against the csv-module writer it replaced."""

    @given(events=event_streams() | queue_streams())
    @example(events=[])
    def test_hand_made_logs(self, events):
        # labels with commas, quotes and line breaks, any finite price, every flag
        assert_encodes(with_edge_rows(events))

    @settings(max_examples=40)
    @given(cfg=logged_configs())
    def test_logged_runs(self, cfg):
        try:
            expected, _, _ = logged_oracle.run(cfg)
        except ValueError:
            assume(False)
        result, text, log = logged_run(cfg)
        assert text == dumps(log)
        assert result.summary["n_mbo_rows"] == len(log) == text.count("\r\n") - 1
        assert (result.summary["executed_units_total"]
                == expected.summary["executed_units_total"]
                == int(log.qty[(log.action == mbo.EXECUTE) & (log.aggressor_flag == 0)].sum()))
        assert_encodes(with_edge_rows(list(log)))


class TestMatchesOracle:
    @settings(max_examples=300)
    @given(events=event_streams() | book_streams() | queue_streams())
    @example(events=[])
    @example(events=[ev(0, 1, "add", qty=0)])
    def test_valid_streams(self, events):
        # event_streams parse but mostly leave a crossed book: replay errors must match too
        assert_parse_parity(dumps(events))
        assert_replay_parity(events)

    @settings(max_examples=40)
    @given(n_events=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           n_levels=st.integers(1, 8))
    def test_simulator_logs(self, n_events, seed, n_levels):
        _, _, log = logged_run(SimConfig(params=LOGGED, n_events=n_events, seed=seed,
                                         n_levels=n_levels, volume_scale=1000))
        assert_parse_parity(dumps(log), tick=0.01)
        assert_replay_parity(log)

    #: kind -> (field, texts to put in it); "dangling" on an add row adds a new order
    FIELD_CORRUPTIONS = {
        "bad_ts": (0, ["x1", "1.5", "", "0x10"]),
        "bad_order_id": (1, ["x1", "1.5", ""]),
        "bad_qty": (5, ["x1", "1.5", ""]),
        "action": (2, ["trade"]),
        "side": (3, ["mid"]),
        "flag": (6, ["maybe", "yes"]),
        "negative_qty": (5, ["-3"]),
        "zero_qty": (5, ["0", "-0", "+0"]),
        "price": (4, ["nan", "inf", "-inf", "NaN", "1.5.5"]),
        "backwards": (0, ["-1"]),
        "off_tick": (4, ["100.3"]),
        "over_execute": (5, ["99999999"]),
        "dangling": (1, ["999999"]),
    }

    @settings(max_examples=400)
    @given(events=book_streams(),
           kind=st.sampled_from([*FIELD_CORRUPTIONS, "field_count", "side_switch", "double_add"]),
           where=st.integers(0, 10**6), tick=st.sampled_from([None, 0.25]),
           blank=st.lists(st.integers(0, 10**6), max_size=3), data=st.data())
    def test_one_corrupt_record(self, events, kind, where, tick, blank, data):
        rows = list(csv.reader(io.StringIO(dumps(events), newline="")))[1:]
        row = rows[where % len(rows)]
        if kind in self.FIELD_CORRUPTIONS:
            field, texts = self.FIELD_CORRUPTIONS[kind]
            row[field] = data.draw(st.sampled_from(texts))
        elif kind == "field_count":
            row.append("") if data.draw(st.booleans()) else row.pop()
        elif kind == "side_switch":
            row[3] = {"bid": "ask", "ask": "bid"}[row[3]]
        else:                                       # an add repeated while its order rests
            adds = [j for j, r in enumerate(rows) if r[2] == "add"]
            i = adds[where % len(adds)]
            rows.insert(i + 1, list(rows[i]))
        for j in blank:                             # blank records count as rows
            rows.insert(j % (len(rows) + 1), [])
        buf = io.StringIO()
        csv.writer(buf).writerows([HEADER, *rows])
        assert_parse_parity(buf.getvalue(), tick)

    #: what the C reader skips around a number (\x1c-\x1f) or drops from
    #: the end of a text (NUL), whitespace, and what may spell a number.  No
    #: "_": the oracle reads digit separators, which parse rejects
    #: (TestParseEdges.test_digit_separators_are_rejected)
    INSERTS = "\x1c\x1d\x1e\x1f\x00 \t+-.ex"

    @settings(max_examples=400)
    @given(events=book_streams(), tick=st.sampled_from([None, 0.25]),
           inserts=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, len(HEADER) - 1),
                                      st.integers(0, 30), st.sampled_from(INSERTS)),
                            min_size=1, max_size=3))
    def test_inserted_characters(self, events, tick, inserts):
        # one judge of how Python reads a row: a number the C reader reads
        # around a character Python rejects fails as the oracle fails
        rows = list(csv.reader(io.StringIO(dumps(events), newline="")))[1:]
        for where, field, at, char in inserts:
            row = rows[where % len(rows)]
            at = min(at, len(row[field]))
            row[field] = row[field][:at] + char + row[field][at:]
        buf = io.StringIO()
        csv.writer(buf).writerows([HEADER, *rows])
        assert_parse_parity(buf.getvalue(), tick)

    @settings(max_examples=400)
    @given(events=book_streams() | queue_streams(min_size=1), where=st.integers(0, 10**6),
           change=st.sampled_from(["qty", "price", "order_id"]), data=st.data())
    def test_one_changed_event_replays_alike(self, events, where, change, data):
        # a changed quantity, price or order id the parser accepts may still
        # break FIFO order, a cancel quantity, a resting price or the
        # uncrossed book, and replay must fail with the oracle's message
        i = where % len(events)
        value = data.draw({"qty": st.integers(0, 6), "price": st.sampled_from(BID_PX + ASK_PX),
                           "order_id": st.integers(1, 8)}[change])
        events[i] = events[i]._replace(**{change: value})
        assume(outcome(parse, io.StringIO(dumps(events)))[0] == "ok")
        assert_replay_parity(events)

    @settings(max_examples=200)
    @given(events=queue_streams())
    def test_quantity_conserved_per_lifecycle(self, events):
        # added + every modify's change == executed + canceled + resting at
        # the end of the file, for each lifecycle; and the last quotes show
        # what the open orders at the best prices still rest
        replay = reconstruct(parsed(events))
        rows, current = [], {}                      # each lifecycle's rows; id -> its lifecycle
        for e in events:
            if e.action == "add":
                current[e.order_id] = len(rows)
                rows.append([])
            rows[current[e.order_id]].append(e)
        resting = []
        for k, (lc, (add, *later)) in enumerate(zip(replay.lifecycles, rows, strict=True)):
            changed = canceled = 0
            rest = add.qty
            for e in later:
                if e.action == "modify":
                    changed, rest = changed + e.qty - rest, e.qty
                elif e.action == "execute":
                    rest -= e.qty
                else:
                    canceled, rest = e.qty, 0
            assert lc.executed_qty == sum(f.qty for f in replay.fills if f.lifecycle == k)
            assert (lc.terminal_kind == "canceled") == any(e.action == "cancel" for e in later)
            assert add.qty + changed == lc.executed_qty + canceled + rest
            resting.append(rest)
        if events:
            last = list(replay.quotes)[-1]
            for side, best, depth in (("bid", last.bid, last.bid_qty),
                                      ("ask", last.ask, last.ask_qty)):
                assert depth == sum(rest for lc, rest in zip(replay.lifecycles, resting)
                                    if lc.terminal_kind is None and lc.side == side
                                    and lc.price == best)

    @pytest.mark.parametrize("events", [
        [ev(10, 1, "add", qty=5), ev(11, 2, "add", qty=5),
         ev(20, 2, "execute", qty=5, flag=False)],
        [ev(10, 1, "add", qty=5), ev(20, 1, "cancel", qty=3)],
        [ev(10, 1, "add", qty=5, price=100.01), ev(20, 1, "execute", qty=5, price=100.02,
                                                   flag=False)],
        [ev(10, 1, "add", qty=5, price=100.01), ev(20, 2, "add", side="bid", qty=3,
                                                   price=100.02)],
        [ev(10, 1, "add", qty=5, price=100.01), ev(20, 2, "add", side="bid", qty=3,
                                                   price=100.01),
         ev(30, 1, "cancel", qty=5, price=100.01)],
        # a larger size empties the level and refills it: the quote shows the new -0.0
        [ev(10, 1, "add", side="bid", price=0.0, qty=1),
         ev(11, 1, "modify", side="bid", price=-0.0, qty=2),
         ev(12, 2, "add", price=0.0, qty=1)],
    ], ids=["fifo", "cancel_qty", "resting_price", "crossed", "locked", "signed_zero_level"])
    def test_replay_errors(self, events):
        with pytest.raises(MboReplayError):
            reconstruct(parsed(events))
        assert_replay_parity(events)


@pytest.mark.filterwarnings("error")
class TestParseEdges:
    ROW = "10,1,add,ask,100.01,5,,"

    @pytest.mark.parametrize("text", [HEADER_LINE, HEADER_LINE + "\n", HEADER_LINE + "\r\n",
                                      HEADER_LINE + "\n\n\r\n"])
    def test_header_only_is_empty(self, text):
        log = parse_text(text)
        assert list(log) == [] and len(log) == 0 and log.ts_ns.dtype == np.int64
        assert_parse_parity(text)

    def test_single_row(self):
        log = parse_text(f"{HEADER_LINE}\n{self.ROW}")
        assert list(log) == [ev(10, 1, "add", qty=5)]
        assert [type(v) for v in list(log)[0]] == [
            int, int, str, str, float, int, type(None), type(None)]

    def test_tick_quotient_past_the_float_range(self):
        # 1e308 / 0.01 is inf: a whole number of ticks, as any quotient
        # above 2**53 is
        text = f"{HEADER_LINE}\n1,1,add,ask,1e308,5,,"
        assert list(parse_text(text, tick=0.01)) == [ev(1, 1, "add", price=1e308, qty=5)]
        assert_parse_parity(text, tick=0.01)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_count_as_rows(self, newline):
        good = newline.join([HEADER_LINE, "", self.ROW, "", "", "20,1,cancel,ask,100.01,5,,", ""])
        assert list(parse_text(good)) == [ev(10, 1, "add", qty=5), ev(20, 1, "cancel", qty=5)]
        bad = newline.join([HEADER_LINE, self.ROW, "", "", "20,9,cancel,ask,100.01,5,,", ""])
        with pytest.raises(MboParseError, match="^row 5: cancel references unknown order 9$"):
            parse_text(bad)
        unreadable = newline.join([HEADER_LINE, self.ROW, "", "x,2,add,ask,1,5,,", ""])
        with pytest.raises(MboParseError, match="^row 4: invalid literal"):
            parse_text(unreadable)
        for text in (good, bad, unreadable):
            assert_parse_parity(text)

    @pytest.mark.parametrize("label", [",", '""', "#", "a\nb", "x,\r\n#y", " "])
    def test_labels_round_trip(self, label):
        events = [ev(10, 1, "add", qty=5, label=label), ev(11, 2, "add", qty=5, label="NT")]
        text = dumps(events)
        assert list(parse_text(text)) == events
        # a record spanning lines is one row
        bad = text + "12,3,cancel,ask,100.01,5,,\r\n"
        with pytest.raises(MboParseError, match="^row 4: cancel references unknown order 3$"):
            parse_text(bad)
        assert_parse_parity(bad)

    @pytest.mark.parametrize("row,message,accepted_before", [
        ("11,2,add,ask,100.01,5_000,,", "could not convert '5_000' to int64", True),
        ("1_1,2,add,ask,100.01,5,,", "could not convert '1_1' to int64", True),
        ("11,2,add,ask,1_00.5,5,,", "could not convert '1_00.5' to float64", True),
        ("11,2,add,mid,1_00.5,5,,", "unknown side 'mid'", False),  # checked before the price
    ])
    def test_digit_separators_are_rejected(self, row, message, accepted_before):
        # Python's int/float read "5_000" and numpy's C reader does not: the
        # parser rejects such a row, naming it, where it once accepted it
        text = f"{HEADER_LINE}\n{self.ROW}\n{row}\n"
        with pytest.raises(MboParseError, match=f"^row 3: {message}$"):
            parse_text(text)
        assert (outcome(mbo_oracle.parse, io.StringIO(text))[0] == "ok") == accepted_before

    @pytest.mark.parametrize("field", [0, 1, 4, 5])
    def test_separator_whitespace_is_rejected(self, field):
        # the C reader skips \x1c-\x1f around a number; Python does not
        row = self.ROW.split(",")
        row[field] = "\x1c" + row[field]
        text = f"{HEADER_LINE}\n{','.join(row)}\n"
        with pytest.raises(MboParseError, match="^row 2: "):
            parse_text(text)
        assert_parse_parity(text)

    @pytest.mark.parametrize("fault", ["11,2,add,mid,100.01,5,,", "11,2,add,ask,100.01,5,,,"])
    def test_oversized_field_before_a_fault_names_its_row(self, fault):
        # row 2 is over the csv module's field limit, which the C reader does
        # not have; the re-read that phrases the error of row 3 reads it too,
        # and the caller's limit is restored
        limit = csv.field_size_limit()
        label = "x" * (limit + 1)
        text = f"{HEADER_LINE}\n{self.ROW}{label}\n{fault}\n"
        message = ("unknown side 'mid'" if "mid" in fault else "expected 8 fields, got 9")
        with pytest.raises(MboParseError, match=f"^row 3: {message}$"):
            parse_text(text)
        assert csv.field_size_limit() == limit
        assert list(parse_text(f"{HEADER_LINE}\n{self.ROW}{label}\n"))[0].participant_label == label

    def test_bare_carriage_returns_name_row_one(self):
        # a stream opened without newline="" keeps bare \r line ends inside one line
        text = "\r".join([HEADER_LINE, self.ROW, ""])
        with pytest.raises(MboParseError, match="^row 1: new-line character seen in unquoted"):
            parse(io.StringIO(text))
        assert list(parse(io.StringIO(text, newline=""))) == [ev(10, 1, "add", qty=5)]

    @pytest.mark.parametrize("field,text", [
        *(("aggressor_flag", t) for t in [" true", "TRUE", "1", " False ", "\u3000true",
                                          "true" + " " * 10, "falseX", "false\x00", "tru"]),
        *(("action", t) for t in ["executeXYZ", "add\x00", "add\u00e9", "add\u20ac", " add"]),
        *(("side", t) for t in ["bid ", "askX", "ask\x00", "a\x00k", "\u20ac"]),
    ])
    def test_coded_fields_read_exactly(self, field, text):
        # action, side and flag are read at a fixed width: a text that fills
        # it may have been cut, a NUL at its end dropped, and a flag may be
        # padded or spelled otherwise; each is judged on its whole text
        row = "11,1,execute,ask,100.01,2,false,".split(",")
        row[HEADER.index(field)] = text
        text = f"{HEADER_LINE}\n{self.ROW}\n{','.join(row)}\n"
        assert_parse_parity(text)

    def test_late_fault_in_a_long_log(self):
        rows = [f"{t},{t},add,ask,{100 + t / 100},5,," for t in range(1, 3000)]
        rows[2500] = rows[2500].replace(",5,,", ",5,,,")
        rows[1700] = ""
        text = "\n".join([HEADER_LINE, *rows, ""])
        with pytest.raises(MboParseError, match="^row 2502: expected 8 fields, got 9$"):
            parse_text(text)
        assert_parse_parity(text)



def parse_in_chunks(text, chunk, tick=None):
    """``outcome`` of ``parse`` of ``text`` read ``chunk`` records at a time."""
    with mock.patch.object(mbo, "CHUNK_ROWS", chunk):
        return outcome(parse, io.StringIO(text, newline=""), tick=tick)


#: a chunk larger than any log here: the whole body in one read (the C
#: reader allocates a chunk's records up front)
ONE_CHUNK = 1 << 12
#: texts up to a few characters past the fixed label width: any code point
#: but NUL and surrogates, so latin-1 and wider ones, commas, quotes and line breaks
LABEL_TEXTS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                      max_size=mbo._LABEL_WIDTH + 3)
LABELS = (st.none() | st.sampled_from(["", "IT", "NT", "IMM", "NMM", 'a,"b"', "\u00e9t\u00e9",
                                        "\u20ac", "x" * mbo._LABEL_WIDTH])
          | st.integers(mbo._LABEL_WIDTH - 1, mbo._LABEL_WIDTH + 1).flatmap(
              lambda k: st.text(st.sampled_from('ab\u00ff\u0100,"\n'), min_size=k, max_size=k))
          | LABEL_TEXTS)


class TestLabels:
    """A label is one ``str`` per distinct text, read exactly: at a fixed
    width, with the labels that fill it read again."""

    @settings(max_examples=200)
    @given(labels=st.lists(LABELS, min_size=1, max_size=40), chunk=st.sampled_from([1, 7, 64]))
    def test_labels_read_as_the_oracle_reads_them(self, labels, chunk):
        events = [ev(10 + k, k + 1, "add", qty=5, label=label) for k, label in enumerate(labels)]
        text = dumps(events)
        want = mbo_oracle.parse(io.StringIO(text, newline=""))
        status, log = parse_in_chunks(text, chunk)
        assert status == "ok" and list(log) == want
        distinct = {row.participant_label for row in want}
        assert len({id(v) for v in log.participant_label}) == len(distinct)


class TestChunkedParse:
    """Reading the body ``CHUNK_ROWS`` records at a time gives the columns
    and the error texts of one read of the whole body."""

    @settings(max_examples=150)
    @given(events=event_streams() | queue_streams() | book_streams(),
           chunk=st.sampled_from([1, 7, 16]), tick=st.sampled_from([None, 0.25]),
           blank=st.lists(st.integers(0, 10**6), max_size=3))
    def test_chunks_equal_one_chunk(self, events, chunk, tick, blank):
        rows = dumps(events).split("\r\n")
        for j in blank:                             # blank lines count as rows, not records
            rows.insert(1 + j % len(rows), "")
        text = "\r\n".join(rows)
        got, want = parse_in_chunks(text, chunk, tick), parse_in_chunks(text, ONE_CHUNK, tick)
        assert got[0] == want[0]
        if got[0] == "ok":
            same_columns(got[1], want[1])
        else:
            assert got[1] == want[1]

    #: kind -> (field, text); each is a fault of one row
    FAULTS = {
        "unreadable_number": (5, "5_000"),          # the C reader rejects it, Python does not
        "bad_number": (0, "x1"),
        "action": (2, "trade"),
        "dangling": (2, "cancel"),                  # of an order never added
        "backwards": (0, "0"),
        "off_tick": (4, "100.013"),
        "separator": (5, "\x1c5"),                  # the C reader reads it, Python does not
        "field_count": (8, ""),
    }
    MESSAGES = {
        "unreadable_number": "could not convert '5_000' to int64",
        "bad_number": "invalid literal for int() with base 10: 'x1'",
        "action": "unknown action 'trade'",
        "dangling": "cancel references unknown order 999",
        "backwards": "timestamp 0 goes backwards",
        "off_tick": "price 100.013 is not a multiple of tick 0.01",
        "separator": "invalid literal for int() with base 10: '\\x1c5'",
        "field_count": "expected 8 fields, got 9",
    }

    @pytest.mark.parametrize("chunk", [1, 7, 16])
    @pytest.mark.parametrize("where", [2, 30, 58], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", list(FAULTS))
    def test_fault_names_its_row_in_any_chunk(self, chunk, where, kind):
        # 60 records and a blank line: with 7 or 16 records a chunk, index 2
        # is in the first chunk, 30 in a middle one and 58 in the last
        rows = [f"{t},{t},add,ask,{100 + t / 100:.2f},5,,IT".split(",") for t in range(1, 61)]
        field, text = self.FAULTS[kind]
        if kind == "field_count":
            rows[where].append(text)
        else:
            rows[where][field] = text
        if kind == "dangling":
            rows[where][1] = "999"
        lines = [",".join(row) for row in rows]
        lines.insert(10, "")
        body = "\n".join([HEADER_LINE, *lines, ""])
        row = where + 2 + (where >= 10)
        message = f"row {row}: {self.MESSAGES[kind]}"
        assert parse_in_chunks(body, chunk, 0.01) == ("MboParseError", message)
        assert parse_in_chunks(body, ONE_CHUNK, 0.01) == ("MboParseError", message)
        if kind != "unreadable_number":             # the oracle reads digit separators
            assert outcome(mbo_oracle.parse, io.StringIO(body, newline=""),
                           tick=0.01) == ("MboParseError", message)


class TestReadMemory:
    """Traced peak of ``parse`` and ``reconstruct`` of a logged run, per
    row of its log: the columns, the order walk, one chunk of records and
    the replay's transients, and no object per row.  It was 210 B a row
    while each row held its own label ``str`` and the whole body was read
    at once; it is about 140 B now."""

    def test_peak_per_row_is_bounded(self, tmp_path):
        cfg = SimConfig(params=LOGGED, n_events=20_000, seed=3, n_levels=8,
                        volume_scale=1000)
        path = tmp_path / "mbo.csv"
        run(cfg, log=path)
        tracemalloc.start()
        try:
            log = parse(path, tick=LOGGED.tick)
            reconstruct(log)
            rows, peak = len(log), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows > 250_000
        assert peak / rows < 150


class TestParsedWalk:
    """A parsed log keeps the order walk its checks made, and its columns
    are read-only so that the walk stays theirs; :func:`reconstruct`
    replays from it and walks nothing itself."""

    @pytest.fixture(scope="class")
    def log_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("walk") / "mbo.csv"
        run(SimConfig(params=LOGGED, n_events=400, seed=5, n_levels=4,
                      volume_scale=1000), log=path)
        return path

    def test_one_walk_per_parsed_log(self, log_path, monkeypatch):
        walked = []

        def counted(act, *rest):
            walked.append(act.size)
            return walk(act, *rest)

        walk = mbo._walk
        monkeypatch.setattr(mbo, "_walk", counted)
        log = parse(log_path, tick=LOGGED.tick)
        replay = reconstruct(log)
        assert walked == [len(log)]
        assert len(replay.fills) and len(replay.quotes)

    def test_parsed_columns_are_read_only(self, log_path):
        log = parse(log_path)
        for name, col in zip(EventLog.fields(), log.columns()):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = col[-1]


class TestOneJudge:
    """``parse`` is the one judge of a log: ``reconstruct`` replays no log
    that parse did not return, and a log built from columns that parse
    would reject is named by its row once it is written and parsed."""

    RULE = (r"^reconstruct replays only a log that parse returned, "
            r"got an EventLog built another way$")

    @pytest.mark.parametrize("events, message", [
        # once replayed as an empty ask, with quote nan
        ([ev(10, 1, "add", side="bid", price=99.99, qty=5), ev(10, 2, "add", price=math.nan)],
         "row 3: price 'nan' is not finite"),
        # once replayed with bid_qty -5
        ([ev(10, 1, "add", side="bid", price=99.99, qty=-5)], "row 2: negative qty -5"),
        # once one snapshot at ts 10 that held the order added at ts 20
        ([ev(20, 1, "add", qty=5), ev(10, 2, "add", price=100.02, qty=5)],
         "row 3: timestamp 10 goes backwards"),
        ([ev(10, 1, "add", qty=5), ev(20, 1, "cancel", qty=5), ev(30, 1, "execute", qty=1)],
         "row 4: execute references unknown order 1"),
    ], ids=["nan_price", "negative_qty", "backwards_ts", "dead_order"])
    def test_built_logs_are_not_replayed(self, events, message):
        with pytest.raises(TypeError, match=self.RULE):
            reconstruct(event_log(events))
        with pytest.raises(MboParseError, match=f"^{message}$"):
            parsed(events)

    def test_a_parsed_log_rebuilt_is_not_replayed(self):
        log = parsed([ev(10, 1, "add", qty=5), ev(20, 1, "cancel", qty=5)])
        assert len(reconstruct(log).lifecycles) == 1
        for other in (EventLog(*log.columns()), log.take(np.arange(len(log)))):
            with pytest.raises(TypeError, match=self.RULE):
                reconstruct(other)


class _Unseekable(io.StringIO):
    def seekable(self):
        return False


class _Blockwise(_Unseekable):
    """An unseekable stream that refuses to be read whole."""

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("read the whole stream")
        return super().read(size)


class TestUnseekableSource:
    """A source that cannot seek is copied in blocks to a temporary file,
    then read as a file is: the same columns, and a bad row named by the
    same number."""

    ROWS = [ev(10 + k, k + 1, "add", price=100 + k / 100, qty=5, label="NMM") for k in range(40)]

    @pytest.mark.parametrize("fault", [None, "row 22: unknown action 'trade'"])
    def test_three_ways_read_alike(self, tmp_path, fault):
        text = dumps(self.ROWS)
        if fault:                                   # the add of order 21, on row 22
            text = text.replace("\r\n30,21,add,", "\r\n30,21,trade,")
        path, fifo = tmp_path / "log.csv", tmp_path / "log.fifo"
        path.write_text(text, newline="")
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"newline": ""},
                                  daemon=True)
        writer.start()
        from_fifo = outcome(parse, fifo, tick=0.01)
        writer.join(timeout=60)
        assert not writer.is_alive()
        got = [outcome(parse, _Unseekable(text, newline=""), tick=0.01),
               outcome(parse, _Blockwise(text, newline=""), tick=0.01), from_fifo,
               outcome(parse, path, tick=0.01)]
        if fault:
            assert got == [("MboParseError", fault)] * 4
            return
        assert [status for status, _ in got] == ["ok"] * 4
        for _, log in got:
            same_columns(log, got[-1][1])
        assert list(got[-1][1]) == self.ROWS
