"""Event-log schema validation and book replay."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from lobeq.mbo import (
    HEADER,
    SIDES,
    MboEvent,
    MboParseError,
    MboReplayError,
    dumps,
    parse,
    reconstruct,
    write_csv,
)


def ev(ts, oid, action, side="ask", price=100.01, qty=10, flag=None, label=None):
    return MboEvent(ts, oid, action, side, price, qty, flag, label)


def parse_text(text, tick=None):
    return parse(io.StringIO(text), tick=tick)


HEADER_LINE = ",".join(HEADER)


@st.composite
def event_streams(draw):
    """Streams the parser accepts: nondecreasing timestamps, every
    modify/cancel/execute naming a live order on its own side, executes
    within the resting quantity."""
    events, live, ts = [], {}, 0
    for oid_next in range(1, draw(st.integers(0, 25)) + 1):
        ts += draw(st.integers(0, 10**9))
        action = draw(st.sampled_from(["add", "modify", "cancel", "execute"] if live else ["add"]))
        if action == "add":
            oid, side, qty = oid_next, draw(st.sampled_from(SIDES)), draw(st.integers(0, 10**12))
        else:
            oid = draw(st.sampled_from(sorted(live)))
            resting, side = live.pop(oid)
            qty = {"modify": draw(st.integers(0, 10**12)), "cancel": resting,
                   "execute": draw(st.integers(0, resting))}[action]
        if action in ("add", "modify"):
            live[oid] = (qty, side)
        elif action == "execute" and qty < resting:
            live[oid] = (resting - qty, side)
        events.append(MboEvent(
            ts, oid, action, side,
            draw(st.floats(allow_nan=False, allow_infinity=False)), qty,
            draw(st.sampled_from([None, True, False])),
            draw(st.none() | st.text(st.sampled_from('INTMab ,"'), min_size=1, max_size=4)),
        ))
    return events


class TestParse:
    def test_empty_body(self):
        assert parse_text(HEADER_LINE + "\n") == []

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
        assert parse_text(dumps(events)) == events

    @settings(deadline=None)
    @given(event_streams())
    def test_roundtrip_property(self, events):
        assert parse_text(dumps(events)) == events

    def test_write_to_path(self, tmp_path):
        events = [ev(10, 1, "add", qty=5)]
        path = tmp_path / "log.csv"
        write_csv(events, path)
        assert parse(path) == events

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
        replay = reconstruct([
            ev(10, 1, "add", qty=5, label="NMM"),
            ev(30, 1, "cancel", qty=5),
        ])
        lc = replay.lifecycles[1]
        assert lc.terminal_kind == "canceled"
        assert lc.terminal_ts == 30
        assert lc.n_updates == 0
        assert replay.open_order_ids == []

    def test_add_modify_execute(self):
        replay = reconstruct([
            ev(10, 1, "add", qty=5),
            ev(20, 1, "modify", qty=8),
            ev(30, 1, "execute", qty=8, flag=False),
        ])
        lc = replay.lifecycles[1]
        assert lc.n_updates == 1
        assert lc.terminal_kind == "executed"
        assert lc.executed_qty == 8

    def test_open_at_eof_reported(self):
        replay = reconstruct([ev(10, 1, "add", qty=5)])
        assert replay.open_order_ids == [1]
        assert replay.lifecycles[1].terminal_kind is None

    def test_fifo_front_enforced(self):
        events = [
            ev(10, 1, "add", qty=5),
            ev(11, 2, "add", qty=5),
            ev(20, 2, "execute", qty=5, flag=False),   # order 1 is in front
        ]
        with pytest.raises(MboReplayError, match="not at the front"):
            reconstruct(events)

    def test_modify_price_loses_priority(self):
        replay = reconstruct([
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=5, price=100.02),
            ev(12, 2, "modify", qty=5, price=100.01),  # joins behind order 1
            ev(20, 1, "execute", qty=5, flag=False, price=100.01),
            ev(21, 2, "execute", qty=5, flag=False, price=100.01),
        ])
        assert replay.lifecycles[2].terminal_kind == "executed"

    def test_modify_size_increase_loses_priority(self):
        events = [
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=5, price=100.01),
            ev(12, 1, "modify", qty=9, price=100.01),  # back of the queue now
            ev(20, 1, "execute", qty=9, flag=False, price=100.01),
        ]
        with pytest.raises(MboReplayError, match="not at the front"):
            reconstruct(events)

    def test_modify_size_decrease_keeps_priority(self):
        replay = reconstruct([
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=5, price=100.01),
            ev(12, 1, "modify", qty=3, price=100.01),
            ev(20, 1, "execute", qty=3, flag=False, price=100.01),
        ])
        assert replay.lifecycles[1].terminal_kind == "executed"

    def test_cancel_qty_must_match(self):
        events = [ev(10, 1, "add", qty=5), ev(20, 1, "cancel", qty=3)]
        with pytest.raises(MboReplayError, match="cancel qty"):
            reconstruct(events)

    def test_passive_execute_price_must_match(self):
        events = [ev(10, 1, "add", qty=5, price=100.01),
                  ev(20, 1, "execute", qty=5, price=100.02, flag=False)]
        with pytest.raises(MboReplayError, match="resting price"):
            reconstruct(events)

    def test_aggressor_execute_price_may_differ(self):
        # a marketable order rests at its limit but fills at deeper prices
        replay = reconstruct([
            ev(10, 1, "add", qty=5, price=100.01, label="NMM"),
            ev(20, 2, "add", side="bid", price=100.03, qty=5, label="NT"),
            ev(20, 1, "execute", qty=5, price=100.01, flag=False),
            ev(20, 2, "execute", side="bid", qty=5, price=100.01, flag=True),
        ])
        assert replay.lifecycles[2].terminal_kind == "executed"
        fills = [f for f in replay.fills if f.aggressor]
        assert fills[0].price == 100.01

    def test_quote_snapshots_per_timestamp(self):
        replay = reconstruct([
            ev(10, 1, "add", side="bid", price=99.99, qty=4),
            ev(10, 2, "add", side="ask", price=100.01, qty=6),
            ev(20, 3, "add", side="ask", price=100.01, qty=2),
            ev(30, 2, "execute", qty=6, flag=False, price=100.01),
        ])
        assert replay.quote_ts == [10, 20, 30]
        assert replay.quote_bid == [99.99, 99.99, 99.99]
        assert replay.quote_ask == [100.01, 100.01, 100.01]
        assert replay.quote_ask_qty == [6, 8, 2]

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
            reconstruct(events)
        # the same book crossed at the last timestamp of the feed
        with pytest.raises(MboReplayError, match="at ts_ns 20"):
            reconstruct(events[:2])

    def test_level_conservation(self):
        # executed + canceled + resting == added, per price level
        events = [
            ev(10, 1, "add", qty=5, price=100.01),
            ev(11, 2, "add", qty=7, price=100.01),
            ev(20, 1, "execute", qty=5, flag=False, price=100.01),
            ev(25, 2, "execute", qty=3, flag=False, price=100.01),
            ev(30, 2, "cancel", qty=4, price=100.01),
        ]
        replay = reconstruct(events)
        executed = sum(f.qty for f in replay.fills)
        added = 5 + 7
        canceled = 4
        assert executed + canceled == added
        assert replay.open_order_ids == []
