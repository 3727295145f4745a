"""Micro/mid prices, trade tables, clustering and signature curves."""

import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mbo_oracle
import records_oracle
import signature_oracle as oracle
from mbo_oracle import dumps
from logged_oracle import event_times
from tables import event_log, from_rows, logged_run
from lobeq.equilibrium import ModelParams
from lobeq.laws import NormalVolume, Pareto
from lobeq.mbo import EventLog, Fills, Lifecycles, Quotes, parse, reconstruct
from lobeq.signature import (
    METRICS,
    ClusterSpec,
    REFERENCES,
    QuoteError,
    QuoteSeries,
    TradeTable,
    build_trade_records,
    classify,
    micro_price,
    mid_price,
    signature_curves,
)
from lobeq.simulator import SimConfig, draw_events


class TestReferencePrices:
    def test_micro_symmetric(self):
        assert micro_price(99.0, 101.0, 5, 5) == 100.0

    def test_micro_weighted_toward_thin_side(self):
        assert micro_price(99.0, 101.0, 1, 3) == 99.5

    def test_micro_boundary(self):
        assert micro_price(99.0, 101.0, 0, 3) == 99.0

    def test_micro_errors(self):
        with pytest.raises(ValueError, match="bid < ask"):
            micro_price(101.0, 99.0, 1, 1)
        with pytest.raises(ValueError, match="both queues empty"):
            micro_price(99.0, 101.0, 0, 0)

    def test_mid(self):
        assert mid_price(99.0, 101.0) == 100.0
        assert mid_price(0.0, 0.01) == 0.005
        assert mid_price(99.0, 101.0) == micro_price(99.0, 101.0, 4, 4)

    def test_micro_stays_inside_the_quotes(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            bid = rng.uniform(90, 110)
            ask = bid + rng.uniform(0.01, 2.0)
            v_b, v_a = rng.integers(0, 1000, 2)
            if v_b == 0 and v_a == 0:
                continue
            mp = micro_price(bid, ask, v_b, v_a)
            assert bid <= mp <= ask


def trade_signature(trades, k_ns, eps, reference, quotes):
    """ST(k) of one cohort, ``eps`` +1 (aggressive) or -1 (passive): the
    one-cluster, one-horizon value of :func:`signature_curves`."""
    if not len(trades):
        raise ValueError("trade_signature needs a nonempty trade table")
    return signature_curves(trades, np.zeros(len(trades), dtype=int), (k_ns,), eps, reference,
                            quotes).values[0][0]


def series(points):
    """points: (ts, bid, ask, vb, va)."""
    ts, bid, ask, vb, va = zip(*points)
    return QuoteSeries(ts, bid, ask, vb, va)


def table(*rows, **columns):
    """Trades from ``(t_ns, qty, price)`` rows; further columns are given
    whole, and the rest default to order id 1, no label and undefined
    metrics."""
    t, qty, price = zip(*rows) if rows else ((), (), ())
    n = len(t)
    defaults = {"order_id": [1] * n, "participant_label": [None] * n,
                **{attr: [np.nan] * n for attr, _, _ in METRICS.values()}}
    return TradeTable(t_ns=t, qty=qty, price=price, **{**defaults, **columns})


def oracle_quotes(quotes):
    """The series under the names the per-trade oracle reads."""
    return SimpleNamespace(ts=quotes.ts_ns, bid=quotes.bid, ask=quotes.ask,
                           bid_qty=quotes.bid_qty, ask_qty=quotes.ask_qty)


def rows(trades):
    """The trades as per-row records, for the per-trade oracle."""
    return [SimpleNamespace(t_ns=t, qty=q, price=p, order_id=o) for t, q, p, o in
            zip(trades.t_ns.tolist(), trades.qty.tolist(), trades.price.tolist(),
                trades.order_id.tolist())]


class TestTradeSignature:
    QUOTES = series([
        (0, 100.25, 100.75, 5, 5),     # mid = micro = 100.5
        (50, 100.30, 100.80, 5, 5),
    ])

    def test_single_buy(self):
        trades = table((10, 10, 100.0))
        assert trade_signature(trades, 5, 1, "mid", self.QUOTES) == pytest.approx(0.5)

    def test_passive_sign_flip(self):
        trades = table((10, 10, 100.0))
        assert trade_signature(trades, 5, -1, "mid", self.QUOTES) == pytest.approx(-0.5)

    def test_left_limit_at_zero_horizon(self):
        # a trade stamped together with a quote change sees the prior quote
        trades = table((50, 10, 100.0))
        assert trade_signature(trades, 0, 1, "mid", self.QUOTES) == pytest.approx(0.5)
        assert trade_signature(trades, 1, 1, "mid", self.QUOTES) == pytest.approx(0.55)

    def test_touched_quote_side(self):
        trades_buy = table((10, 10, 100.75))
        trades_sell = table((10, -10, 100.25))
        assert trade_signature(trades_buy, 0, 1, "touched", self.QUOTES) == 0.0
        assert trade_signature(trades_sell, 0, 1, "touched", self.QUOTES) == 0.0

    def test_linearity_in_reference(self):
        c = 0.375
        shifted = series([(0, 100.25 + c, 100.75 + c, 5, 5),
                          (50, 100.30 + c, 100.80 + c, 5, 5)])
        trades = table((10, 10, 100.0), (20, -4, 100.6), (30, 7, 100.2))
        base = trade_signature(trades, 5, 1, "mid", self.QUOTES)
        moved = trade_signature(trades, 5, 1, "mid", shifted)
        q_sum = trades.qty.sum()
        q_abs = np.abs(trades.qty).sum()
        assert moved - base == pytest.approx(c * q_sum / q_abs, rel=1e-12)

    def test_missing_reference_names_trade(self):
        trades = table((10, 10, 100.0), order_id=[77])
        early = series([(20, 100.0, 100.5, 1, 1)])
        with pytest.raises(ValueError, match="order 77"):
            trade_signature(trades, 5, 1, "mid", early)

    def test_time_past_int64_saturates(self):
        # t + k beyond int64 must not wrap: past the last snapshot it reads
        # that snapshot (mid 100.55), before the first it finds none
        trades = table((-10, 10, 100.0), (10, 10, 100.0))
        late = signature_curves(trades, np.array([0, 1]), [2**63 - 5], 1, "mid", self.QUOTES)
        assert late.values == {0: (pytest.approx(0.55),), 1: (pytest.approx(0.55),)}
        with pytest.raises(ValueError, match=f"at t = -10 .*before t = {-2**63}$"):
            signature_curves(trades, np.array([0, 1]), [-2**63 + 5], 1, "mid", self.QUOTES)

    def test_bucket_without_traded_volume_rejected(self):
        # a log's fills move at least 1 unit (parse rejects 0), but a table
        # built by hand may hold trades for 0 units: such a bucket is 0/0
        trades = table((10, 5, 100.0), (20, 0, 100.6), (30, 0, 100.2))
        with pytest.raises(ValueError, match=r"^bucket 1 has no traded volume: n_trades = 2, "
                                             r"each for 0 units, so its signature is 0/0$"):
            signature_curves(trades, np.array([0, 1, 1]), [0], 1, "mid", self.QUOTES)

    def test_eps_and_empty_validation(self):
        with pytest.raises(ValueError, match="eps"):
            trade_signature(table((10, 1, 100.0)), 0, 2, "mid", self.QUOTES)
        with pytest.raises(ValueError, match="nonempty"):
            trade_signature(table(), 0, 1, "mid", self.QUOTES)


class TestClassify:
    def test_trade_to_add_single_threshold(self):
        spec = ClusterSpec("trade_to_add", (1e7,), "passive")
        trades = table(*[(0, 1, 0.0)] * 3, trade_to_add_ns=[int(5e6), int(5e8), None])
        assert classify(trades, spec).tolist() == [0, 1, -1]

    def test_trade_to_add_multi_threshold(self):
        spec = ClusterSpec("trade_to_add", (1e4, 1e7, 1e9), "passive")
        trades = table((0, 1, 0.0), trade_to_add_ns=[int(1e8)])
        assert classify(trades, spec).tolist() == [2]

    def test_volume_ratio_descending(self):
        spec = ClusterSpec("volume_ratio", (0.25, 0.5, 0.75), "aggressive")
        values = [1.0, 0.8, 0.6, 0.3, 0.1]
        trades = table(*[(0, 1, 0.0)] * len(values), volume_ratio=values)
        assert classify(trades, spec).tolist() == [0, 0, 1, 2, 3]

    def test_update_count_more_updates_more_informed(self):
        spec = ClusterSpec("update_count", (0.5,), "passive")
        trades = table((0, 1, 0.0), (0, 1, 0.0), update_count=[0, 3])
        assert classify(trades, spec).tolist() == [1, 0]

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="passive side"):
            ClusterSpec("trade_to_add", (1e7,), "aggressive")
        with pytest.raises(ValueError, match="aggressive side"):
            ClusterSpec("volume_ratio", (0.5,), "passive")
        with pytest.raises(ValueError, match="strictly increasing"):
            ClusterSpec("trade_to_add", (1e7, 1e7), "passive")
        with pytest.raises(ValueError, match="unknown metric"):
            ClusterSpec("order_size", (1.0,), "aggressive")
        with pytest.raises(ValueError, match="at least one threshold"):
            ClusterSpec("trade_to_add", (), "passive")


SIM_LOG = SimConfig(params=ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01),
                                       volume=NormalVolume(10.0), tick=0.01, offset_d=0.0,
                                       lambda_i=0.15, lambda_u=0.85),
                    n_events=6000, seed=23, record_log=True, n_levels=8, volume_scale=1000)


@pytest.fixture(scope="module")
def sim_replay():
    return reconstruct(logged_run(SIM_LOG)[2])


class TestTradeRecords:
    def test_partition_and_signs(self, sim_replay):
        aggressive, passive = build_trade_records(sim_replay)
        n_fills_aggr = sum(1 for f in sim_replay.fills if f.aggressor)
        n_fills_pass = sum(1 for f in sim_replay.fills if not f.aggressor)
        assert len(aggressive) == n_fills_aggr
        assert len(passive) == n_fills_pass
        assert set(aggressive.participant_label) <= {"IT", "NT"}
        assert np.all(aggressive.qty != 0)
        assert set(passive.participant_label) <= {"IMM", "NMM"}

    def test_informed_aggressors_are_buyers(self, sim_replay):
        # every jump in the event chain points at the ask side
        aggressive, _ = build_trade_records(sim_replay)
        assert np.all(aggressive.qty[aggressive.participant_label == "IT"] > 0)

    def test_volume_ratio_range(self, sim_replay):
        aggressive, _ = build_trade_records(sim_replay)
        ratios = aggressive.volume_ratio[~np.isnan(aggressive.volume_ratio)]
        assert ratios.size
        assert np.all((0.0 < ratios) & (ratios <= 1.0))

    def test_informed_deplete_the_best_limit(self, sim_replay):
        # on a won race the informed trader sweeps whole levels (ratio 1);
        # after a lost race he only gets what survived the cancel
        aggressive, _ = build_trade_records(sim_replay)
        # the race each jump's trade followed, re-drawn under the run's seed
        rng = np.random.default_rng(SIM_LOG.seed)
        draws = draw_events(SIM_LOG.params, SIM_LOG.n_events, rng)
        jump = draws.is_jump
        jump_ts = event_times(SIM_LOG.params, SIM_LOG.n_events, rng)[jump]
        it_won_at = dict(zip(jump_ts.tolist(), draws.it_wins[jump].tolist()))
        it = aggressive.take((aggressive.participant_label == "IT")
                             & ~np.isnan(aggressive.volume_ratio))
        assert len(it)
        for t, ratio in zip(it.t_ns.tolist(), it.volume_ratio.tolist()):
            if it_won_at[t]:
                assert ratio == 1.0
            else:
                assert 0.0 < ratio <= 1.0

    def test_cluster_counts_partition_and_are_horizon_free(self, sim_replay):
        quotes = QuoteSeries.from_replay(sim_replay)
        aggressive, _ = build_trade_records(sim_replay)
        spec = ClusterSpec("trade_to_trade", (1e8, 1e9), "aggressive")
        labels = classify(aggressive, spec)
        n_undef = int(np.sum(labels == -1))
        curve = signature_curves(aggressive, labels, [0, int(1e9), int(5e9)],
                                 1, "micro", quotes)
        assert sum(curve.counts.values()) + n_undef == len(aggressive)
        assert set(curve.values) <= {0, 1, 2}

    def test_passive_signature_positive_for_informed_makers(self, sim_replay):
        # passive fills mark against the spread: at k = 0 the maker side of
        # the trade signature is positive (mirror of the taker crossing it)
        quotes = QuoteSeries.from_replay(sim_replay)
        _, passive = build_trade_records(sim_replay)
        st0 = trade_signature(passive, 0, -1, "touched", quotes)
        assert st0 >= 0.0


class TestTradeTable:
    def test_take_keeps_columns_aligned(self):
        trades = table((1, 2, 100.0), (2, -3, 100.5), (3, 4, 99.5),
                       participant_label=["IT", None, "NT"], volume_ratio=[0.5, None, 1.0])
        picked = trades.take(~np.isnan(trades.volume_ratio))
        assert len(picked) == 2
        assert picked.t_ns.tolist() == [1, 3]
        assert picked.qty.tolist() == [2, 4]
        assert picked.volume_ratio.tolist() == [0.5, 1.0]
        assert trades.take([2, 0]).price.tolist() == [99.5, 100.0]
        assert np.isnan(trades.volume_ratio[1])
        assert trades.qty.dtype == np.int64 and trades.participant_label.dtype == object

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            table((1, 2, 100.0), (2, 3, 100.0), order_id=[5])
        with pytest.raises(ValueError, match="equal length"):
            table((1, 2, 100.0), update_count=[[1]])
        with pytest.raises(ValueError, match="1-d"):
            TradeTable(**{name: 1 for name in TradeTable.fields()})

    @pytest.mark.parametrize("kind", [Fills, Lifecycles, Quotes, QuoteSeries, TradeTable,
                                      EventLog])
    def test_every_table_checks_its_columns(self, kind):
        # one check in Table: unequal lengths, 0-d and 2-d columns all fail, naming the table
        n = len(kind.fields())
        for columns in ([[1, 2]] + [[1]] * (n - 1), [1] * n, [[[1]]] * n):
            with pytest.raises(ValueError, match=f"^{kind.__name__} columns must be 1-d and "
                                                 "of equal length$"):
                kind(*columns)
        assert len(kind(*[[1]] * n)) == 1 and len(from_rows(kind, [])) == 0
        # each column once, by position or by name: a column too many, one
        # given twice, an unknown name and a missing one fail, naming the table
        first = kind.fields()[0]
        for columns, named in (([[1]] * (n + 1), {}), ([[1]] * n, {first: [1]}),
                               ([[1]] * n, {"bogus": [1]}), ([[1]] * (n - 1), {})):
            with pytest.raises(ValueError, match=f"^{kind.__name__} takes each of the columns "
                                                 rf"\('{first}', .* once, by position or by name; "
                                                 f"got {len(columns)} by position and "):
                kind(*columns, **named)

    def test_unequal_quote_columns_fail_before_a_lookup(self):
        with pytest.raises(ValueError, match="^QuoteSeries columns"):
            QuoteSeries([1, 2], [1.0], [2.0], [1], [1]).reference([5], "mid")
        with pytest.raises(ValueError, match="strictly increasing"):
            QuoteSeries([2, 2], [1.0, 1.0], [2.0, 2.0], [1, 1], [1, 1])
        # timestamps further apart than int64 reaches are still increasing
        QuoteSeries([-5 * 10**18, 5 * 10**18], [1.0, 1.0], [2.0, 2.0], [1, 1], [1, 1])

    def test_quote_series_shares_the_replay_columns(self, sim_replay):
        quotes = QuoteSeries.from_replay(sim_replay)
        for got, want in zip(quotes.columns(), sim_replay.quotes.columns()):
            assert got is want


def test_empty_series_has_no_reference_snapshot():
    empty = QuoteSeries([], [], [], [], [])
    for kind in REFERENCES:
        with pytest.raises(QuoteError, match="no reference snapshot before t = 5") as info:
            empty.reference([5], kind, [1])
        assert info.value.index == 0
        assert empty.reference([], kind).size == 0


# -- the trade tables against the per-fill records ---------------------------

def assert_table_matches_records(trades, records):
    """Every column row for row: integers exactly, None <-> nan, floats bit
    for bit."""
    assert len(trades) == len(records)
    for name in ("t_ns", "order_id", "qty", "participant_label"):
        assert getattr(trades, name).tolist() == [getattr(r, name) for r in records], name
    for name in ("price", *(attr for attr, _, _ in METRICS.values())):
        got, want = getattr(trades, name), [getattr(r, name) for r in records]
        assert np.isnan(got).tolist() == [w is None for w in want], name
        defined = np.array([w for w in want if w is not None], dtype=float)
        assert got[~np.isnan(got)].tobytes() == defined.tobytes(), name


def assert_tables_match_oracle(events):
    """The tables of ``events`` match the records of the row-object replay."""
    for trades, records in zip(build_trade_records(reconstruct(event_log(events))),
                               records_oracle.build_trade_records(mbo_oracle.reconstruct(events))):
        assert_table_matches_records(trades, records)


BID_PX = (99.5, 99.75, 100.0)
ASK_PX = (100.25, 100.5, 100.75)


@st.composite
def book_streams(draw):
    """Valid feeds with modifies, cancels, one-sided books and sweeps of the
    best levels, where an order id freed by a cancel or a full execute is
    often reused, also at the same timestamp and on the other side."""
    events, ts, next_id = [], 0, 1
    queues = {"bid": {}, "ask": {}}       # side -> price -> FIFO of live ids
    live, free = {}, []                   # id -> [side, price, qty, label]; reusable ids

    def new_order(side, price, qty):
        nonlocal next_id
        if free and draw(st.booleans()):
            oid = free.pop()
        else:
            oid, next_id = next_id, next_id + 1
        live[oid] = [side, price, qty, draw(st.sampled_from([None, "IT", "NT", "IMM", "NMM"]))]
        emit(oid, "add", price, qty)
        return oid

    def emit(oid, action, price, qty, flag=None):
        side, _, _, label = live[oid]
        events.append(EventLog.Row(ts, oid, action, side, price, qty, flag, label))

    def remove(oid):
        side, price = live[oid][:2]
        queues[side][price].remove(oid)
        del live[oid]
        free.append(oid)

    for _ in range(draw(st.integers(1, 40))):
        ts += draw(st.sampled_from([0, 0, 1, 7]))
        action = draw(st.sampled_from(["add", "add", "modify", "cancel", "sweep"]))
        resting = sorted(live)
        if action == "add" or not resting:
            side = draw(st.sampled_from(["bid", "ask"]))
            price = draw(st.sampled_from(BID_PX if side == "bid" else ASK_PX))
            oid = new_order(side, price, draw(st.integers(1, 5)))
            queues[side].setdefault(price, []).append(oid)
        elif action == "modify":
            oid = draw(st.sampled_from(resting))
            side, price, qty, _ = live[oid]
            new_price = draw(st.sampled_from(BID_PX if side == "bid" else ASK_PX))
            new_qty = draw(st.integers(1, 5))
            emit(oid, "modify", new_price, new_qty)
            if new_price != price or new_qty > qty:       # loses its queue position
                queues[side][price].remove(oid)
                queues[side].setdefault(new_price, []).append(oid)
            live[oid][1:3] = [new_price, new_qty]
        elif action == "cancel":
            oid = draw(st.sampled_from(resting))
            emit(oid, "cancel", live[oid][1], live[oid][2])
            remove(oid)
        else:
            swept = draw(st.sampled_from(["bid", "ask"]))
            levels = sorted((p for p, q in queues[swept].items() if q), reverse=swept == "bid")
            if not levels:
                continue
            fills = [(oid, live[oid][1], live[oid][2])
                     for price in levels[:draw(st.integers(1, 2))]
                     for oid in queues[swept][price]]
            budget = draw(st.integers(1, sum(q for _, _, q in fills)))
            taker = new_order("ask" if swept == "bid" else "bid", fills[-1][1], budget)
            for oid, price, qty in fills:
                take = min(qty, budget)
                if take == 0:
                    break
                emit(oid, "execute", price, take, False)
                emit(taker, "execute", price, take, True)
                budget -= take
                live[oid][2] -= take
                if live[oid][2] == 0:
                    remove(oid)
            del live[taker]
            free.append(taker)
    return events


LOGGED = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                     tick=0.01, offset_d=0.0, lambda_i=0.15, lambda_u=0.85)


class TestTablesMatchRecordsOracle:
    @settings(max_examples=60)
    @given(n_events=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           n_levels=st.integers(1, 10), volume_scale=st.sampled_from([1, 10, 1000, 10**6]),
           theta=st.sampled_from([0.0, 0.005, 0.02]))
    def test_simulator_logs(self, n_events, seed, n_levels, volume_scale, theta):
        params = dataclasses.replace(LOGGED, theta=theta)
        _, _, log = logged_run(SimConfig(params=params, n_events=n_events, seed=seed,
                                         record_log=True, n_levels=n_levels,
                                         volume_scale=volume_scale))
        assert_tables_match_oracle(log)

    @settings(max_examples=300)
    @given(events=book_streams())
    def test_hand_made_streams(self, events):
        assert_tables_match_oracle(parse(io.StringIO(dumps(events))))

    def test_sweeps_of_a_reused_id_form_one_run(self):
        # order 2 buys, is fully executed, and comes back at the same
        # nanosecond to sell: its fills are consecutive, so they form one
        # sweep signed by its first fill
        Row = EventLog.Row
        events = [Row(0, 1, "add", "ask", 100.25, 2, None, None),
                  Row(0, 3, "add", "bid", 100.0, 2, None, None),
                  Row(1, 2, "add", "bid", 100.25, 2, None, "IT"),
                  Row(1, 1, "execute", "ask", 100.25, 2, False, None),
                  Row(1, 2, "execute", "bid", 100.25, 2, True, "IT"),
                  Row(1, 2, "add", "ask", 100.0, 1, None, "NT"),
                  Row(1, 3, "execute", "bid", 100.0, 1, False, None),
                  Row(1, 2, "execute", "ask", 100.0, 1, True, "NT")]
        replay = reconstruct(event_log(events))
        aggressive, passive = build_trade_records(replay)
        assert aggressive.qty.tolist() == [2, 1]
        assert aggressive.participant_label.tolist() == ["IT", "NT"]
        assert passive.order_id.tolist() == [1, 3] and passive.qty.tolist() == [2, -1]
        assert_tables_match_oracle(events)

    def test_gaps_past_int64_are_exact(self):
        # two sweeps and two adds at one level 1e19 ns apart, more than an
        # int64 difference holds: the gaps are 1e19, the slowest cluster
        Row = EventLog.Row
        t0, t1 = -5 * 10**18, 5 * 10**18
        events = [Row(t0, 1, "add", "ask", 100.25, 1, None, None),
                  Row(t0, 2, "add", "bid", 100.25, 1, None, "IT"),
                  Row(t0, 1, "execute", "ask", 100.25, 1, False, None),
                  Row(t0, 2, "execute", "bid", 100.25, 1, True, "IT"),
                  Row(t1, 3, "add", "ask", 100.25, 1, None, None),
                  Row(t1, 4, "add", "bid", 100.25, 1, None, "NT"),
                  Row(t1, 3, "execute", "ask", 100.25, 1, False, None),
                  Row(t1, 4, "execute", "bid", 100.25, 1, True, "NT")]
        aggressive, passive = build_trade_records(reconstruct(event_log(events)))
        assert passive.order_id.tolist() == [1, 3]
        for trades, metric in ((aggressive, "trade_to_trade"), (passive, "add_to_add")):
            gaps = getattr(trades, METRICS[metric][0])
            assert np.isnan(gaps[0]) and gaps[1] == 1e19, metric
            spec = ClusterSpec(metric, (1e7, 1e9), METRICS[metric][1])
            assert classify(trades, spec).tolist() == [-1, 2], metric
        assert_tables_match_oracle(events)


# -- the array lookup against the per-trade oracle ---------------------------

PRICES = st.sampled_from([99.5, 99.75, 100.0, 100.25, 100.5])


@st.composite
def quote_series(draw):
    """Up to six well-formed snapshots, of which up to two may then be
    one-sided, crossed or have empty or negative queues."""
    ts = sorted(draw(st.sets(st.integers(4, 60), max_size=5)) | {draw(st.integers(0, 6))})
    good = st.tuples(st.sampled_from([99.5, 99.75, 100.0]), st.sampled_from([100.25, 100.5]),
                     st.integers(0, 3), st.integers(1, 3))
    side = st.one_of(st.none(), PRICES, PRICES)
    bad = st.tuples(side, side, st.integers(-1, 1), st.integers(-1, 1))
    points = [draw(good) for _ in ts]
    for i in draw(st.lists(st.integers(0, len(ts) - 1), max_size=2)):
        points[i] = draw(bad)
    return series([(t, *p) for t, p in zip(ts, points)])


@st.composite
def cohorts(draw):
    """Trades before, at and after the snapshot times; distinct order ids."""
    n = draw(st.integers(1, 8))
    qty = st.integers(-5, 5).filter(bool)
    return table(*[(draw(st.integers(0, 70)), draw(qty), draw(PRICES)) for _ in range(n)],
                 order_id=np.arange(100, 100 + n))


KINDS = st.sampled_from(REFERENCES * 3 + ("vwap",))
HORIZONS = st.sampled_from([0, 1, 5, 30])


def oracle_lookup(quotes, t, kind, qty):
    """(values, None) or (index, message) of the first failing element."""
    values, quotes = [], oracle_quotes(quotes)
    for i, (ti, qi) in enumerate(zip(t.tolist(), qty.tolist())):
        try:
            values.append(oracle.reference(quotes, ti, kind, qi))
        except ValueError as exc:
            return i, str(exc)
    return values, None


class TestArrayLookupMatchesOracle:
    @settings(max_examples=300)
    @given(quotes=quote_series(), trades=cohorts(), kind=KINDS, k=HORIZONS)
    def test_reference_values_and_first_failure(self, quotes, trades, kind, k):
        t, qty = trades.t_ns + k, trades.qty
        want, message = oracle_lookup(quotes, t, kind, qty)
        if message is None:
            got = quotes.reference(t, kind, qty)
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
        else:
            with pytest.raises(QuoteError) as info:
                quotes.reference(t, kind, qty)
            assert (info.value.index, str(info.value)) == (want, message)

    @settings(max_examples=300)
    @given(quotes=quote_series(), trades=cohorts(), kind=KINDS, k=HORIZONS,
           eps=st.sampled_from([1, -1]))
    def test_trade_signature_within_bound(self, quotes, trades, kind, k, eps):
        records, seen = rows(trades), oracle_quotes(quotes)
        try:
            want = oracle.trade_signature(records, k, eps, kind, seen)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                trade_signature(trades, k, eps, kind, quotes)
            assert str(info.value) == str(exc)
            return
        got = trade_signature(trades, k, eps, kind, quotes)
        x = [oracle.reference(seen, r.t_ns + k, kind, r.qty) for r in records]
        scale = (sum(abs(r.qty * (xi - r.price)) for r, xi in zip(records, x))
                 / sum(abs(r.qty) for r in records))
        assert abs(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize("args, message", [
        ((101.0, 99.0, 1, 1), "micro price needs bid < ask, got 101.0 >= 99.0"),
        ((99.0, 101.0, -1, 1), "queue volumes must be nonnegative"),
        ((99.0, 101.0, 0, 0), "micro price undefined with both queues empty"),
    ])
    def test_micro_price_elementwise_names_first_failure(self, args, message):
        good = (99.0, 101.0, 2, 3)
        columns = [np.array([g, g, a, g]) for g, a in zip(good, args)]
        with pytest.raises(QuoteError, match=message) as info:
            micro_price(*columns)
        assert info.value.index == 2
        assert micro_price(*(c[:2] for c in columns)).tolist() == [oracle.micro_price(*good)] * 2
