"""Monte Carlo simulator: zero-profit closure, mechanics, determinism and
logged-run bookkeeping."""

import dataclasses
import io
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import logged_oracle
from mbo_oracle import dumps
from tables import csv_body, event_log
from lobeq.equilibrium import BookShape, ModelParams, book_curves, shape_tick
from lobeq.laws import Exponential, NormalVolume, Pareto, PointMass
from lobeq.mbo import HEADER_LINE, EventLog, Quotes, parse, reconstruct, write_csv
from lobeq.simulator import (
    SimConfig,
    _event_times,
    _LoggedRun,
    draw_events,
    export_mbo,
    run,
)

REF = ModelParams(r=0.9, f=0.9, jump=Pareto(3.0, 0.005), volume=NormalVolume(10.0),
                  tick=0.01, offset_d=0.0)

# noise-dominated market whose book starts at the jump-law support, so every
# race the informed trader wins ends in a trade
LOGGED = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                     tick=0.01, offset_d=0.0, lambda_i=0.15, lambda_u=0.85)


def assert_same_quotes(got, expected):
    """Equal ``Quotes`` tables, column by column, nan equal to nan."""
    for name in Quotes.fields():
        a, b = getattr(got, name), getattr(expected, name)
        assert np.array_equal(a, b, equal_nan=True), name


def oracle_quotes(snapshots):
    """The oracle's ``(ts, bid_px, bid_qty, ask_px, ask_qty)`` tuples as a
    ``Quotes`` table, with nan and zero for an empty side's None."""
    ts, bid, bid_qty, ask, ask_qty = zip(*snapshots)
    price = [[math.nan if v is None else v for v in col] for col in (bid, ask)]
    qty = [[0 if v is None else v for v in col] for col in (bid_qty, ask_qty)]
    return Quotes(ts, *price, *qty)


def assert_replay_quotes(log, snapshots):
    """The best quotes of the replay of ``log`` against the oracle's
    snapshots, one after the initial book (ts 0) and one after each event:
    equal at every timestamp the log holds.  A snapshot whose event wrote
    no row equals the snapshot before it, and at ts 0 the empty book."""
    got, expected = reconstruct(log).quotes, oracle_quotes(snapshots)
    assert np.isin(got.ts_ns, expected.ts_ns).all()
    at = np.searchsorted(expected.ts_ns, got.ts_ns)
    assert_same_quotes(got, expected.take(at))
    silent = np.setdiff1d(np.arange(len(expected)), at)
    before = expected.take(np.maximum(silent - 1, 0))
    for name, empty in (("bid", math.nan), ("ask", math.nan), ("bid_qty", 0), ("ask_qty", 0)):
        want = np.where(silent == 0, empty, getattr(before, name))
        assert np.array_equal(getattr(expected, name)[silent], want, equal_nan=True), name


def populated_levels(result):
    """(maker, level) pairs whose own book carries volume at that level."""
    eff = np.diff(result.book.informed, prepend=0.0)
    noise = np.diff(result.book.noise, prepend=0.0)
    out = set()
    for p in result.pnl:
        lvl = noise if p.maker == "NMM" else eff
        if lvl[p.level - 1] > 0.0:
            out.add((p.maker, p.level))
    return out


class TestFastPath:
    def test_zero_profit_at_equilibrium(self):
        res = run(SimConfig(params=REF, n_events=400_000, seed=7, n_levels=8))
        populated = populated_levels(res)
        assert populated
        for p in res.pnl:
            if (p.maker, p.level) in populated:
                assert p.n_fills > 30
                assert abs(p.mean_gain) <= 3.0 * p.std_err, (p.maker, p.level)

    def test_empirical_fractions(self):
        n = 200_000
        res = run(SimConfig(params=REF, n_events=n, seed=3, n_levels=6))
        s = res.summary
        se_r = math.sqrt(REF.r * (1 - REF.r) / n)
        assert abs(s["empirical_r"] - REF.r) <= 3 * se_r
        se_f = math.sqrt(REF.f * (1 - REF.f) / s["n_jumps"])
        assert abs(s["empirical_f"] - REF.f) <= 3 * se_f

    def test_determinism(self):
        a = run(SimConfig(params=REF, n_events=50_000, seed=11, n_levels=6))
        b = run(SimConfig(params=REF, n_events=50_000, seed=11, n_levels=6))
        assert a.pnl == b.pnl
        assert a.summary == b.summary

    def test_tightened_book_loses(self):
        book = shape_tick(REF, 8)
        informed = np.concatenate([book.informed[1:], [book.informed[-1]]])
        noise = np.concatenate([book.noise[1:], [book.noise[-1]]])
        tight = BookShape(grid=book.grid, informed=informed, noise=noise)
        res = run(SimConfig(params=REF, n_events=400_000, seed=7, book_mode=tight))
        first = next(p for p in res.pnl if p.maker == "IMM" and p.level == 2)
        assert first.mean_gain < -3.0 * first.std_err

    def test_widened_book_wins(self):
        book = shape_tick(REF, 8)
        informed = np.concatenate([[0.0], book.informed[:-1]])
        noise = np.concatenate([[0.0], book.noise[:-1]])
        wide = BookShape(grid=book.grid, informed=informed, noise=noise)
        res = run(SimConfig(params=REF, n_events=400_000, seed=7, book_mode=wide))
        first = next(p for p in res.pnl
                     if p.maker == "IMM" and np.diff(informed, prepend=0.0)[p.level - 1] > 0)
        assert first.mean_gain > 3.0 * first.std_err

    def test_zero_profit_with_toxicity(self):
        params = ModelParams(r=0.6, f=0.8, jump=Pareto(2.5, 0.01),
                             volume=NormalVolume(10.0), theta=0.004, rho=0.5,
                             tick=0.01, offset_d=0.0)
        res = run(SimConfig(params=params, n_events=400_000, seed=5, n_levels=7))
        populated = populated_levels(res)
        assert populated
        for p in res.pnl:
            if (p.maker, p.level) in populated and p.n_fills > 50:
                assert abs(p.mean_gain) <= 3.0 * p.std_err, (p.maker, p.level)

    def test_f_one_makers_indistinguishable(self):
        params = ModelParams(r=0.9, f=1.0, jump=Pareto(3.0, 0.005),
                             volume=NormalVolume(10.0), tick=0.01, offset_d=0.0)
        res = run(SimConfig(params=params, n_events=200_000, seed=9, n_levels=6))
        by_level = {}
        for p in res.pnl:
            by_level.setdefault(p.level, {})[p.maker] = p
        for level, makers in by_level.items():
            imm, nmm = makers["IMM"], makers["NMM"]
            if imm.n_fills == 0:
                continue
            # identical books and no cancel channel: the same fills verbatim
            assert imm.n_fills == nmm.n_fills
            assert imm.mean_gain == nmm.mean_gain

    def test_volume_conservation_bounds(self):
        res = run(SimConfig(params=REF, n_events=100_000, seed=13, n_levels=6))
        per_level = np.diff(res.book.informed, prepend=0.0)
        executed = np.asarray(res.summary["executed_volume_per_level"])
        n = res.summary["n_events"]
        assert np.all(executed <= per_level * n + 1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^the closed-form book needs a positive tick "
                                             "to place levels, got tick = 0.0$"):
            SimConfig(params=ModelParams(r=0.9, f=0.9, jump=Pareto(3.0, 0.005),
                                         volume=NormalVolume(10.0)),
                      n_events=10, seed=0)
        with pytest.raises(ValueError, match="^book_mode must be None or a BookShape, got "
                                             "'equilibrium_static'$"):
            SimConfig(params=REF, n_events=10, seed=0, book_mode="equilibrium_static")
        bad = BookShape(grid=np.array([0.01, 0.02]), informed=np.array([5.0, 3.0]),
                        noise=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="nondecreasing"):
            SimConfig(params=REF, n_events=10, seed=0, book_mode=bad)
        deep = dataclasses.replace(shape_tick(REF, 2), informed=np.array([5.0, np.inf]))
        with pytest.raises(ValueError, match="^book_mode needs finite informed depth"):
            SimConfig(params=REF, n_events=10, seed=0, book_mode=deep)
        with pytest.raises(ValueError, match="unbounded"):
            run(SimConfig(params=ModelParams(r=0.9, f=0.0, jump=Pareto(3.0, 0.005),
                                             volume=NormalVolume(10.0), tick=0.01),
                          n_events=10, seed=0))
        with pytest.raises(ValueError, match="n_events"):
            SimConfig(params=REF, n_events=0, seed=0)
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            SimConfig(params=REF, n_events=10, seed=-1)
        short = BookShape(grid=np.array([0.01, 0.02]), informed=np.array([1.0]),
                          noise=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="^informed curve length does not match the grid$"):
            SimConfig(params=REF, n_events=10, seed=0, book_mode=short)
        negative = dataclasses.replace(short, informed=np.array([1.0, 2.0]),
                                       noise=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="^noise cumulative depth must be nonnegative$"):
            SimConfig(params=REF, n_events=10, seed=0, book_mode=negative)
        # a user book needs a finite, nonnegative, strictly increasing grid
        # and no nan depth; each fault names its 1-based level
        book = shape_tick(REF, 3)
        for change, message in [
                (dict(noise=np.array([0.0, np.nan, 2.0])),
                 "noise cumulative depth at level 2 is nan"),
                (dict(grid=np.array([0.0, np.nan, 0.02])),
                 "grid distance nan at level 2 must be finite and nonnegative"),
                (dict(grid=np.array([-0.01, 0.01, 0.02])),
                 "grid distance -0.01 at level 1 must be finite and nonnegative"),
                (dict(grid=np.array([0.0, 0.02, 0.01])),
                 "grid must be strictly increasing: level 3 at 0.01 follows 0.02")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SimConfig(params=REF, n_events=10, seed=0,
                          book_mode=dataclasses.replace(book, **change))
        SimConfig(params=REF, n_events=10, seed=0, book_mode=book)
        # a logged book sits on the tick grid around the price and reads no offset
        with pytest.raises(ValueError, match="^record_log puts levels on the tick grid and reads "
                                             "no offset_d; got offset_d = 0.005$"):
            SimConfig(params=dataclasses.replace(REF, offset_d=0.005), n_events=10, seed=0,
                      record_log=True)

    def test_overflowing_drift_gains_are_rejected(self):
        # n_events * (theta * (1 + |rho|))**2 bounds a level's sum of squared
        # drift gains: a config where it overflows is rejected before any draw
        with pytest.raises(ValueError, match=r"^theta = 1e\+200 with rho = 0.5 is too large for "
                                             r"n_events = 2000: n_events \* \(theta \* "
                                             r"\(1 \+ \|rho\|\)\)\*\*2 overflows a float$"):
            SimConfig(params=dataclasses.replace(REF, theta=1e200, rho=0.5), n_events=2000, seed=0)
        with pytest.raises(ValueError, match=r"^theta = 1.5e\+308 with rho = -0.5 is too large"):
            SimConfig(params=dataclasses.replace(REF, theta=1.5e308, rho=-0.5), n_events=1, seed=0)
        # a finite bound passes, and an n_events beyond the float range is no
        # OverflowError
        SimConfig(params=dataclasses.replace(REF, theta=1e150, rho=0.5), n_events=2000, seed=0)
        for theta in (0.0, 1e-300):
            SimConfig(params=dataclasses.replace(REF, theta=theta), n_events=10**400, seed=0)
        with pytest.raises(ValueError, match="is too large for n_events"):
            SimConfig(params=dataclasses.replace(REF, theta=1.0), n_events=10**400, seed=0)


LOGGED_RUN = SimConfig(params=LOGGED, n_events=4000, seed=11, record_log=True,
                       n_levels=8, volume_scale=1000)


@pytest.fixture(scope="module")
def logged_result():
    return run(LOGGED_RUN)


def redraw(cfg):
    """The draws and event times of ``run(cfg)``, re-drawn under its seed."""
    rng = np.random.default_rng(cfg.seed)
    draws = draw_events(cfg.params, cfg.n_events, rng)
    return draws, _event_times(cfg.params, cfg.n_events, rng)


class TestLoggedPath:
    def test_zero_profit_still_holds(self, logged_result):
        populated = populated_levels(logged_result)
        for p in logged_result.pnl:
            if (p.maker, p.level) in populated and p.n_fills > 100:
                assert abs(p.mean_gain) <= 3.5 * p.std_err, (p.maker, p.level)

    def test_deterministic_log(self):
        cfg = SimConfig(params=LOGGED, n_events=500, seed=21, record_log=True,
                        n_levels=6, volume_scale=1000)
        assert list(export_mbo(run(cfg))) == list(export_mbo(run(cfg)))

    def test_roundtrip_export_parse(self, logged_result):
        events = export_mbo(logged_result)
        parsed = parse(io.StringIO(dumps(events)), tick=LOGGED.tick)
        assert list(parsed) == list(events)

    def test_quote_series_reproduced_by_replay(self, logged_result):
        _, oracle = logged_oracle.run(LOGGED_RUN)
        assert_replay_quotes(export_mbo(logged_result), oracle.snapshots)

    @given(n_events=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           n_levels=st.integers(1, 10), volume_scale=st.sampled_from([1, 10, 1000, 10**6]))
    def test_replay_conserves_executed_volume(self, n_events, seed, n_levels, volume_scale):
        result = run(SimConfig(params=LOGGED, n_events=n_events, seed=seed, record_log=True,
                               n_levels=n_levels, volume_scale=volume_scale))
        replay = reconstruct(export_mbo(result))
        passive = sum(f.qty for f in replay.fills if not f.aggressor)
        aggressive = sum(f.qty for f in replay.fills if f.aggressor)
        assert passive == aggressive == result.summary["executed_units_total"]

    def test_aggressive_trades_match_events(self, logged_result):
        # one aggressive IT order per jump that found volume in reach (the
        # informed trader also sweeps leftover volume after a lost race)
        replay = reconstruct(export_mbo(logged_result))
        fills, lcs = replay.fills, replay.lifecycles
        takers = lcs.take(fills.lifecycle[fills.aggressor])        # one lifecycle per fill
        it_orders = set(takers.order_id[takers.participant_label == "IT"].tolist())
        _, oracle = logged_oracle.run(LOGGED_RUN)
        n_executed_jumps = sum(
            1 for ev in oracle.events
            if ev.kind == "jump" and ev.executed_per_level
        )
        assert len(it_orders) == n_executed_jumps

    def test_every_won_race_trades_on_aligned_grid(self):
        # grid-aligned jumps keep the offset at zero, so the first populated
        # level always lies within the jump and every won race executes
        from lobeq.laws import PointMass
        params = ModelParams(r=0.15, f=0.9, jump=PointMass(0.05),
                             volume=NormalVolume(10.0), tick=0.01, offset_d=0.0,
                             lambda_i=0.15, lambda_u=0.85)
        cfg = SimConfig(params=params, n_events=2000, seed=8,
                        record_log=True, n_levels=5, volume_scale=1000)
        draws, times = redraw(cfg)
        won_at = times[(draws.is_jump & draws.it_wins) != 0]
        assert len(won_at) > 100
        replay = reconstruct(export_mbo(run(cfg)))
        fills, label = replay.fills, replay.lifecycles.participant_label[replay.fills.lifecycle]
        assert set(label[fills.aggressor]) <= {"IT", "NT"}
        it_trades_at = fills.ts_ns[fills.aggressor & (label == "IT")]
        assert np.isin(won_at, it_trades_at).all()

    def test_replenishment_restores_closed_form(self, logged_result):
        # end-of-log resting volume per ask level == integer-quantized targets
        replay = reconstruct(export_mbo(logged_result))
        scale = 1000
        draws, _ = redraw(LOGGED_RUN)
        price = 100.0 + sum(draws.jump_size[draws.is_jump != 0].tolist())
        tick = LOGGED.tick
        a0 = math.ceil(price / tick - 1e-9)
        dist = np.array([i * tick - price for i in range(a0, a0 + 8)])
        informed, _ = book_curves(LOGGED, np.maximum(dist, 0.0))
        targets = np.diff(np.round(informed * scale).astype(int), prepend=0)
        resting = {}
        for lc in replay.lifecycles:
            if lc.terminal_kind is None and lc.side == "ask":
                key = round(lc.price / tick)
                resting[key] = resting.get(key, 0) + (lc.add_qty - lc.executed_qty)
        for i, idx in enumerate(range(a0, a0 + 8)):
            assert resting.get(idx, 0) == targets[i]

    def test_export_requires_log(self):
        res = run(SimConfig(params=REF, n_events=100, seed=1, n_levels=4))
        with pytest.raises(ValueError, match="record_log"):
            export_mbo(res)

    def test_labels_present(self, logged_result):
        labels = {ev.participant_label for ev in export_mbo(logged_result)}
        assert {"IT", "NT", "IMM", "NMM"} <= labels

    def test_sign_chain_persistence(self):
        params = ModelParams(r=0.1, f=0.9, jump=Pareto(2.5, 0.01),
                             volume=NormalVolume(10.0), rho=0.5,
                             tick=0.01, offset_d=0.0)
        res = run(SimConfig(params=params, n_events=200_000, seed=2, n_levels=4))
        # persistence is a property of the drawn sign chain; re-draw it
        from lobeq.simulator import draw_events
        draws = draw_events(params, 200_000, np.random.default_rng(2))
        signs = draws.noise_sign[draws.noise_sign != 0]
        frac = np.mean(signs[1:] == signs[:-1])
        se = math.sqrt(0.75 * 0.25 / len(signs))
        assert abs(frac - 0.75) <= max(3 * se, 0.01)
        assert res.summary["n_events"] == 200_000


class TestLoggedErrors:
    def test_requires_a_positive_tick(self):
        params = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0))
        with pytest.raises(ValueError, match="closed-form book needs a positive tick"):
            SimConfig(params=params, n_events=10, seed=0, record_log=True)

    def test_static_mode_only(self):
        with pytest.raises(ValueError, match=r"^record_log needs the closed-form book "
                                             r"\(book_mode=None\)$"):
            SimConfig(params=LOGGED, n_events=10, seed=0, record_log=True,
                      book_mode=shape_tick(LOGGED, 4))

    def test_unbounded_book(self):
        params = ModelParams(r=0.15, f=0.0, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                             tick=0.01)
        with pytest.raises(ValueError, match="unbounded within the simulated levels"):
            run(SimConfig(params=params, n_events=10, seed=0, record_log=True))

    def test_price_path_must_stay_on_a_finite_grid(self):
        # a drift of 1e100 takes the path beyond 2**52 ticks, with no
        # RuntimeWarning on the way to the error
        params = dataclasses.replace(LOGGED, theta=1e100)
        with pytest.raises(ValueError, match="^record_log needs a finite price path"):
            run(SimConfig(params=params, n_events=10, seed=0, record_log=True))

    def test_volume_units_must_fit_in_int64(self):
        with pytest.raises(ValueError, match=f"^volume_scale {10**30} is too large: "):
            run(SimConfig(params=LOGGED, n_events=10, seed=0, record_log=True,
                          volume_scale=10**30))
        # a large scale that still fits runs, and its total, past int64,
        # stays exact
        res = run(SimConfig(params=LOGGED, n_events=20, seed=0, record_log=True,
                            volume_scale=10**17))
        replay = reconstruct(export_mbo(res))
        total = res.summary["executed_units_total"]
        assert total > 2**63
        assert total == sum(f.qty for f in replay.fills if not f.aggressor)
        assert total == sum(replay.fills.qty[~replay.fills.aggressor].tolist())


@st.composite
def logged_configs(draw):
    """Logged runs of every kind of book move: continuous and grid-aligned
    jumps, drift off the grid, one to ten levels, and coarse and fine volume
    units.  Every config drawn reaches the loop: run rejects f = 0 and a
    point mass at 0.05 with six levels or more (the level at that distance
    has unbounded depth), which explicit examples cover."""
    jump = draw(st.sampled_from([Pareto(2.5, 0.01), Exponential(60.0), PointMass(0.05)]))
    params = ModelParams(
        r=draw(st.sampled_from([0.15, 0.5])), f=draw(st.sampled_from([0.5, 0.9, 1.0])),
        jump=jump, volume=NormalVolume(10.0), tick=0.01, offset_d=0.0,
        theta=draw(st.sampled_from([0.0, 0.0005, 0.005])),
        rho=draw(st.sampled_from([0.0, 0.5, 0.9])),
    )
    return SimConfig(params=params, n_events=draw(st.integers(1, 400)),
                     seed=draw(st.integers(0, 2**32 - 1)), record_log=True,
                     n_levels=draw(st.integers(1, 5 if isinstance(jump, PointMass) else 10)),
                     volume_scale=draw(st.sampled_from([1, 10, 1000, 10**6])))


def refill_case(f, n_levels, volume_scale, n_events, seed, jump=Pareto(2.5, 0.01)):
    params = ModelParams(r=0.15, f=f, jump=jump, volume=NormalVolume(10.0), tick=0.01,
                         offset_d=0.0)
    return SimConfig(params=params, n_events=n_events, seed=seed, record_log=True,
                     n_levels=n_levels, volume_scale=volume_scale)


#: theta = 0 runs whose noise sweeps are refilled from their takes, each
#: with one kind of sweep or neighbour event (checked in TestRefill)
REFILL_CASES = {
    # a buy or sell larger than the whole side: the aggressor's cancel row
    "empties_a_side": refill_case(0.5, 1, 1000, 20, 2),
    # a level with zero target inside the walk, before a filled one
    "walks_past_an_empty_level": refill_case(0.5, 2, 1000, 20, 2),
    # one-unit volumes: a noise event of |volume| < 0.5 writes no row
    "rounds_to_zero_units": refill_case(0.9, 3, 1, 20, 2),
    # jumps the informed trader loses, as every jump at f = 0: the IMM
    # cancels come before the sweep
    "lost_races": refill_case(0.5, 8, 1000, 40, 0),
}


class TestLoggedOracle:
    """The precomputed-state logged run against the per-event loop it
    replaced (tests/logged_oracle.py): everything equal, exactly."""

    @settings(max_examples=150)
    @given(cfg=logged_configs())
    @example(cfg=REFILL_CASES["empties_a_side"])
    @example(cfg=REFILL_CASES["walks_past_an_empty_level"])
    @example(cfg=REFILL_CASES["rounds_to_zero_units"])
    @example(cfg=REFILL_CASES["lost_races"])
    @example(cfg=refill_case(0.0, 8, 1000, 40, 0))     # f = 0: unbounded, rejected alike
    @example(cfg=refill_case(0.9, 6, 1000, 40, 0, PointMass(0.05)))   # unbounded level 6, too
    def test_matches_oracle(self, cfg):
        try:
            expected, oracle = logged_oracle.run(cfg)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                run(cfg)
            return
        result = run(cfg)
        assert "".join(result.mbo_text) == "".join(expected.mbo_text)
        log = export_mbo(result)
        assert list(log) == oracle.rows
        assert_replay_quotes(log, oracle.snapshots)
        assert result.pnl == expected.pnl
        assert result.summary == expected.summary

        # the kernel reads the distances at jumps and noise buys, the depths
        # at buys; the oracle fills only those rows
        new = _LoggedRun(cfg, *redraw(cfg))
        buy = new.draws.noise_sign > 0
        for name, rows in (("probe_x", (new.draws.is_jump != 0) | buy), ("probe_imm", buy),
                           ("probe_nmm", buy)):
            assert (getattr(new, name)[rows].tobytes()
                    == getattr(oracle, name)[rows].tobytes()), name

    def test_long_toxic_run_matches_oracle(self):
        params = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                             tick=0.01, offset_d=0.0, theta=0.0005, rho=0.5)
        cfg = SimConfig(params=params, n_events=3000, seed=5, record_log=True,
                        n_levels=8, volume_scale=1000)
        expected, oracle = logged_oracle.run(cfg)
        result = run(cfg)
        assert "".join(result.mbo_text) == "".join(expected.mbo_text)
        assert_replay_quotes(export_mbo(result), oracle.snapshots)


class TestRefill:
    """Each of ``REFILL_CASES`` reaches ``_LoggedRun._refill`` with the kind
    of sweep or event it is named for."""

    @staticmethod
    def traced_run(cfg):
        """The run, its log rows, and per refill the (layout walked,
        budget, takes) of the sweep it refills."""
        draws, times = redraw(cfg)
        lr = _LoggedRun(cfg, draws, times)
        sweep, refill, refills, last = lr._sweep, lr._refill, [], []

        def traced_sweep(ts, side, idxs, budget, label, limit_idx=None):
            last[:] = [idxs, budget]
            return sweep(ts, side, idxs, budget, label, limit_idx)

        def traced_refill(ts, side, taken):
            refills.append((*last, taken))
            refill(ts, side, taken)

        lr._sweep, lr._refill = traced_sweep, traced_refill
        lr.run_all()
        rows = list(parse(io.StringIO(HEADER_LINE + "".join(lr.blocks), newline="")))
        return lr, rows, refills

    def test_empties_a_side(self):
        _, rows, refills = self.traced_run(REFILL_CASES["empties_a_side"])
        assert any(sum(a + b for _, a, b in taken) < budget for _, budget, taken in refills)
        assert any(r.action == "cancel" and r.participant_label == "NT" for r in rows)

    def test_walks_past_an_empty_level(self):
        _, _, refills = self.traced_run(REFILL_CASES["walks_past_an_empty_level"])
        assert any([idx for idx, _, _ in taken] != idxs[:len(taken)]
                   for idxs, _, taken in refills)

    def test_rounds_to_zero_units(self):
        cfg = REFILL_CASES["rounds_to_zero_units"]
        lr, rows, refills = self.traced_run(cfg)
        noise = lr.draws.is_jump == 0
        silent = noise & (np.round(lr.draws.noise_mag * cfg.volume_scale) == 0)
        assert refills and silent.any()
        assert not set(lr.times_ns[silent].tolist()) & {r.ts_ns for r in rows}

    def test_lost_races(self):
        lr, rows, refills = self.traced_run(REFILL_CASES["lost_races"])
        lost = (lr.draws.is_jump != 0) & (lr.draws.it_wins == 0) & (np.array(lr.jump_volume) > 0)
        assert refills and lost.any()
        for ts in lr.times_ns[lost].tolist():
            kinds = [(r.action, r.participant_label) for r in rows if r.ts_ns == ts]
            first_it = kinds.index(("add", "IT"))
            assert ("cancel", "IMM") in kinds[:first_it]


class TestLoggedMemory:
    """Peak traced allocation of a logged run at the parameters of
    acceptance test 7, per order it adds: the log's text is about half of
    it, so keeping anything more per order or per row shows up here."""

    N_EVENTS = 20_000

    def test_peak_per_order(self):
        cfg = SimConfig(params=LOGGED, n_events=self.N_EVENTS, seed=1, record_log=True,
                        n_levels=8, volume_scale=1000)
        tracemalloc.start()
        try:
            result = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_orders = sum(block.count(",add,") for block in result.mbo_text)
        assert n_orders > 100_000
        assert peak / n_orders < 300.0

    def test_orders_are_small_records(self):
        # no larger than a slotted (id, participant, units) record, 56 bytes
        cfg = SimConfig(params=LOGGED, n_events=2000, seed=1, record_log=True,
                        n_levels=8, volume_scale=1000)
        lr = _LoggedRun(cfg, *redraw(cfg))
        lr.run_all()
        orders = [order for book in lr.levels for queues in book.values()
                  for queue in queues for order in queue]
        assert orders and max(map(sys.getsizeof, orders)) <= 56


class TestEventLog:
    ROWS = [EventLog.Row(1, 1, "add", "ask", 100.01, 5, None, "NMM"),
            EventLog.Row(2, 2, "add", "bid", 100.01, 5, None, "IT"),
            EventLog.Row(2, 1, "execute", "ask", 100.01, 5, False, "NMM"),
            EventLog.Row(2, 2, "execute", "bid", 100.01, 5, True, "IT")]

    def test_rows_and_equality(self):
        log = event_log(self.ROWS)
        assert len(log) == 4
        assert list(log) == self.ROWS
        assert list(event_log(iter(self.ROWS))) == self.ROWS
        assert list(log) != self.ROWS[:3] and list(log) != self.ROWS[::-1]
        assert list(event_log([])) == [] and event_log(log) is log
        with pytest.raises(TypeError):              # a table is read as columns
            log[0]

    def test_array_columns_read_as_python_values(self):
        # lists, arrays and a mix of both give the same log of numpy columns
        # (action, side and flag as int8 codes) whose rows read as Python values
        arrays = event_log(self.ROWS)
        lists = [col.tolist() for col in arrays.columns()]
        mixed = EventLog(*(col if i % 2 else col.tolist()
                           for i, col in enumerate(arrays.columns())))
        from_lists = EventLog(*lists)
        for log in (from_lists, mixed):
            assert [col.dtype for col in log.columns()] == [
                np.dtype(np.int8 if isinstance(dtype, tuple) else dtype)
                for dtype in EventLog.COLUMNS.values()]
            assert list(log) == list(arrays) == self.ROWS
            assert list(log) != self.ROWS[::-1]
            assert list(log) != list(event_log(self.ROWS[::-1]))
            assert [type(v) for v in list(log)[2]] == [
                int, int, str, str, float, int, bool, str]
            assert [type(v) for v in next(iter(log))] == [
                int, int, str, str, float, int, type(None), str]
            assert dumps(log) == dumps(self.ROWS)
            assert list(parse(io.StringIO(dumps(log)))) == list(log)

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError, match="^EventLog columns must be 1-d and of equal length$"):
            EventLog([1], [1], [0], [1], [1.0], [1], [-1], [])

    def test_written_like_its_rows(self):
        rows = self.ROWS + [EventLog.Row(3, 3, "add", "ask", -0.0, 1, None, None),
                            EventLog.Row(3, 4, "add", "ask", 0.0, 1, None, None)]
        buf = io.StringIO()
        write_csv([csv_body(event_log(rows))], buf)
        assert buf.getvalue() == dumps(rows)
        assert list(parse(io.StringIO(buf.getvalue()))) == rows
        assert ",-0,1,," in buf.getvalue() and ",0,1,," in buf.getvalue()

