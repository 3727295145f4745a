"""Micro/mid prices, trade records, clustering and signature curves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import signature_oracle as oracle
from lobeq.equilibrium import ModelParams
from lobeq.laws import NormalVolume, Pareto
from lobeq.mbo import reconstruct
from lobeq.signature import (
    ClusterSpec,
    REFERENCES,
    QuoteError,
    QuoteSeries,
    TradeRecord,
    build_trade_records,
    classify,
    micro_price,
    mid_price,
    signature_curves,
    trade_signature,
)
from lobeq.simulator import SimConfig, export_mbo, run


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


def series(points):
    """points: (ts, bid, ask, vb, va)."""
    ts, bid, ask, vb, va = zip(*points)
    return QuoteSeries(ts, bid, ask, vb, va)


def record(t, qty, price, **kw):
    defaults = dict(order_id=1, participant_label=None, aggressor=True)
    defaults.update(kw)
    return TradeRecord(t_ns=t, qty=qty, price=price, **defaults)


class TestTradeSignature:
    QUOTES = series([
        (0, 100.25, 100.75, 5, 5),     # mid = micro = 100.5
        (50, 100.30, 100.80, 5, 5),
    ])

    def test_single_buy(self):
        trades = [record(10, 10, 100.0)]
        assert trade_signature(trades, 5, 1, "mid", self.QUOTES) == pytest.approx(0.5)

    def test_passive_sign_flip(self):
        trades = [record(10, 10, 100.0, aggressor=False)]
        assert trade_signature(trades, 5, -1, "mid", self.QUOTES) == pytest.approx(-0.5)

    def test_left_limit_at_zero_horizon(self):
        # a trade stamped together with a quote change sees the prior quote
        trades = [record(50, 10, 100.0)]
        assert trade_signature(trades, 0, 1, "mid", self.QUOTES) == pytest.approx(0.5)
        assert trade_signature(trades, 1, 1, "mid", self.QUOTES) == pytest.approx(0.55)

    def test_touched_quote_side(self):
        trades_buy = [record(10, 10, 100.75)]
        trades_sell = [record(10, -10, 100.25)]
        assert trade_signature(trades_buy, 0, 1, "touched", self.QUOTES) == 0.0
        assert trade_signature(trades_sell, 0, 1, "touched", self.QUOTES) == 0.0

    def test_linearity_in_reference(self):
        c = 0.375
        shifted = series([(0, 100.25 + c, 100.75 + c, 5, 5),
                          (50, 100.30 + c, 100.80 + c, 5, 5)])
        trades = [record(10, 10, 100.0), record(20, -4, 100.6), record(30, 7, 100.2)]
        base = trade_signature(trades, 5, 1, "mid", self.QUOTES)
        moved = trade_signature(trades, 5, 1, "mid", shifted)
        q_sum = sum(t.qty for t in trades)
        q_abs = sum(abs(t.qty) for t in trades)
        assert moved - base == pytest.approx(c * q_sum / q_abs, rel=1e-12)

    def test_missing_reference_names_trade(self):
        trades = [record(10, 10, 100.0, order_id=77)]
        early = series([(20, 100.0, 100.5, 1, 1)])
        with pytest.raises(ValueError, match="order 77"):
            trade_signature(trades, 5, 1, "mid", early)

    def test_eps_and_empty_validation(self):
        with pytest.raises(ValueError, match="eps"):
            trade_signature([record(10, 1, 100.0)], 0, 2, "mid", self.QUOTES)
        with pytest.raises(ValueError, match="nonempty"):
            trade_signature([], 0, 1, "mid", self.QUOTES)


class TestClassify:
    def test_trade_to_add_single_threshold(self):
        spec = ClusterSpec("trade_to_add", (1e7,), "passive")
        recs = [record(0, 1, 0.0, aggressor=False, trade_to_add_ns=int(5e6)),
                record(0, 1, 0.0, aggressor=False, trade_to_add_ns=int(5e8)),
                record(0, 1, 0.0, aggressor=False, trade_to_add_ns=None)]
        assert classify(recs, spec).tolist() == [0, 1, -1]

    def test_trade_to_add_multi_threshold(self):
        spec = ClusterSpec("trade_to_add", (1e4, 1e7, 1e9), "passive")
        rec = record(0, 1, 0.0, aggressor=False, trade_to_add_ns=int(1e8))
        assert classify([rec], spec).tolist() == [2]

    def test_volume_ratio_descending(self):
        spec = ClusterSpec("volume_ratio", (0.25, 0.5, 0.75), "aggressive")
        values = [1.0, 0.8, 0.6, 0.3, 0.1]
        recs = [record(0, 1, 0.0, volume_ratio=v) for v in values]
        assert classify(recs, spec).tolist() == [0, 0, 1, 2, 3]

    def test_update_count_more_updates_more_informed(self):
        spec = ClusterSpec("update_count", (0.5,), "passive")
        recs = [record(0, 1, 0.0, aggressor=False, update_count=0),
                record(0, 1, 0.0, aggressor=False, update_count=3)]
        assert classify(recs, spec).tolist() == [1, 0]

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


@pytest.fixture(scope="module")
def sim_log():
    params = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01),
                         volume=NormalVolume(10.0), tick=0.01, offset_d=0.0,
                         lambda_i=0.15, lambda_u=0.85)
    result = run(SimConfig(params=params, n_events=6000, seed=23,
                           record_log=True, n_levels=8, volume_scale=1000))
    return result, reconstruct(export_mbo(result))


@pytest.fixture(scope="module")
def sim_replay(sim_log):
    return sim_log[1]


class TestTradeRecords:
    def test_partition_and_signs(self, sim_replay):
        aggressive, passive = build_trade_records(sim_replay)
        n_fills_aggr = sum(1 for f in sim_replay.fills if f.aggressor)
        n_fills_pass = sum(1 for f in sim_replay.fills if not f.aggressor)
        assert len(aggressive) == n_fills_aggr
        assert len(passive) == n_fills_pass
        for rec in aggressive:
            assert rec.participant_label in ("IT", "NT")
            assert rec.qty != 0
        for rec in passive:
            assert rec.participant_label in ("IMM", "NMM")

    def test_informed_aggressors_are_buyers(self, sim_replay):
        # every jump in the event chain points at the ask side
        aggressive, _ = build_trade_records(sim_replay)
        assert all(r.qty > 0 for r in aggressive if r.participant_label == "IT")

    def test_volume_ratio_range(self, sim_replay):
        aggressive, _ = build_trade_records(sim_replay)
        ratios = [r.volume_ratio for r in aggressive if r.volume_ratio is not None]
        assert ratios
        assert all(0.0 < v <= 1.0 for v in ratios)

    def test_informed_deplete_the_best_limit(self, sim_log):
        # on a won race the informed trader sweeps whole levels (ratio 1);
        # after a lost race he only gets what survived the cancel
        result, replay = sim_log
        aggressive, _ = build_trade_records(replay)
        race_by_ts = {ev.t_ns: ev.race_won_by for ev in result.events
                      if ev.kind == "jump" and ev.executed_per_level}
        it = [r for r in aggressive
              if r.participant_label == "IT" and r.volume_ratio is not None]
        assert it
        for rec in it:
            if race_by_ts[rec.t_ns] == "IT":
                assert rec.volume_ratio == 1.0
            else:
                assert 0.0 < rec.volume_ratio <= 1.0

    def test_cluster_counts_partition_and_are_horizon_free(self, sim_replay):
        aggressive, _ = build_trade_records(sim_replay)
        quotes = QuoteSeries.from_replay(sim_replay)
        spec = ClusterSpec("trade_to_trade", (1e8, 1e9), "aggressive")
        labels = classify(aggressive, spec)
        n_undef = int(np.sum(labels == -1))
        curve = signature_curves(aggressive, labels, [0, int(1e9), int(5e9)],
                                 1, "micro", quotes)
        assert sum(curve.counts.values()) + n_undef == len(aggressive)
        assert set(curve.cluster_ids) <= {0, 1, 2}

    def test_passive_signature_positive_for_informed_makers(self, sim_replay):
        # passive fills mark against the spread: at k = 0 the maker side of
        # the trade signature is positive (mirror of the taker crossing it)
        _, passive = build_trade_records(sim_replay)
        quotes = QuoteSeries.from_replay(sim_replay)
        st0 = trade_signature(passive, 0, -1, "touched", quotes)
        assert st0 >= 0.0


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
    return [record(draw(st.integers(0, 70)), draw(qty), draw(PRICES), order_id=100 + i)
            for i in range(n)]


KINDS = st.sampled_from(REFERENCES * 3 + ("vwap",))
HORIZONS = st.sampled_from([0, 1, 5, 30])


def oracle_lookup(quotes, t, kind, qty):
    """(values, None) or (index, message) of the first failing element."""
    values = []
    for i, (ti, qi) in enumerate(zip(t.tolist(), qty.tolist())):
        try:
            values.append(oracle.reference(quotes, ti, kind, qi))
        except ValueError as exc:
            return i, str(exc)
    return values, None


class TestArrayLookupMatchesOracle:
    @settings(deadline=None, max_examples=300)
    @given(quotes=quote_series(), trades=cohorts(), kind=KINDS, k=HORIZONS)
    def test_reference_values_and_first_failure(self, quotes, trades, kind, k):
        t = np.array([r.t_ns + k for r in trades], dtype=np.int64)
        qty = np.array([r.qty for r in trades])
        want, message = oracle_lookup(quotes, t, kind, qty)
        if message is None:
            got = quotes.reference(t, kind, qty)
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
        else:
            with pytest.raises(QuoteError) as info:
                quotes.reference(t, kind, qty)
            assert (info.value.index, str(info.value)) == (want, message)

    @settings(deadline=None, max_examples=300)
    @given(quotes=quote_series(), trades=cohorts(), kind=KINDS, k=HORIZONS,
           eps=st.sampled_from([1, -1]))
    def test_trade_signature_within_bound(self, quotes, trades, kind, k, eps):
        try:
            want = oracle.trade_signature(trades, k, eps, kind, quotes)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                trade_signature(trades, k, eps, kind, quotes)
            assert str(info.value) == str(exc)
            return
        got = trade_signature(trades, k, eps, kind, quotes)
        x = [oracle.reference(quotes, r.t_ns + k, kind, r.qty) for r in trades]
        scale = (sum(abs(r.qty * (xi - r.price)) for r, xi in zip(trades, x))
                 / sum(abs(r.qty) for r in trades))
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
