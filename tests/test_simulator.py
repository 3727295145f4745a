"""Monte Carlo simulator: zero-profit closure, mechanics, determinism and
logged-run bookkeeping."""

import csv
import dataclasses
import io
import json
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import draw_oracle
import logged_oracle
from mbo_oracle import dumps
from pnl_oracle import sweeps
from tables import csv_body, event_log, logged_run
from lobeq.equilibrium import BookShape, ModelParams, book_curves, shape_tick
from lobeq.kernels import accumulate_pnl
from lobeq.laws import Exponential, LaplaceVolume, NormalVolume, Pareto, PointMass
from lobeq.mbo import HEADER_LINE, EventLog, Quotes, parse, reconstruct, write_csv
from lobeq import mbo, simulator
from lobeq.cli import main
from lobeq.simulator import (
    CHUNK_EVENTS,
    EventDraws,
    SimConfig,
    _draw_chunks,
    _executed_volume,
    _LoggedRun,
    _nmm_level_split,
    _pnl_rows,
    _time_stream,
    draw_events,
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
        # a finite bound passes, up to the largest n_events
        SimConfig(params=dataclasses.replace(REF, theta=1e150, rho=0.5), n_events=2000, seed=0)
        for theta in (0.0, 1e-300, 1e144):
            SimConfig(params=dataclasses.replace(REF, theta=theta), n_events=2**63 - 1, seed=0)
        with pytest.raises(ValueError, match="is too large for n_events"):
            SimConfig(params=dataclasses.replace(REF, theta=1e145), n_events=2**63 - 1, seed=0)

    @pytest.mark.parametrize("n_events", [2**63, 2**64, 10**400],
                             ids=["2**63", "2**64", "10**400"])
    def test_n_events_beyond_int64_rejected(self, n_events):
        # the run counts events in int64: a count it cannot hold is rejected
        # at once, before the drift-gain check reads it
        with pytest.raises(ValueError, match=rf"^n_events must be below 2\*\*63, the int64 "
                                             rf"limit, got {n_events}$"):
            SimConfig(params=dataclasses.replace(REF, theta=1.0), n_events=n_events, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("n_events", 1000.0), ("n_events", True), ("seed", 1.5), ("seed", False),
        ("n_levels", 2.0), ("n_levels", "3"), ("volume_scale", 1000.5), ("volume_scale", True)])
    def test_integer_fields_must_be_integers(self, field, value):
        # rejected at once, naming the field, on both paths; numpy integers pass
        for record_log in (False, True):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "
                                                 f"{re.escape(repr(value))}$"):
                SimConfig(**{"params": LOGGED, "n_events": 10, "seed": 0,
                             "record_log": record_log, field: value})
        SimConfig(params=LOGGED, n_events=np.int64(10), seed=np.uint32(0),
                  n_levels=np.int8(2), volume_scale=np.int64(1000))


DRAW_FIELDS = [f.name for f in dataclasses.fields(EventDraws)]
JUMP_LAWS = [Pareto(3.0, 0.005), Exponential(200.0), PointMass(0.02)]
VOLUME_LAWS = [NormalVolume(10.0), LaplaceVolume(5.0)]


def assert_same_draws(got: EventDraws, want: EventDraws):
    for name in DRAW_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def chunked(params, n_events, seed, chunk):
    """The draws of ``_draw_chunks`` joined, and the generator after them."""
    rng = np.random.default_rng(seed)
    parts = list(_draw_chunks(params, n_events, rng, chunk))
    return EventDraws(*(np.concatenate([getattr(p, name) for p in parts])
                        for name in DRAW_FIELDS)), rng


class TestChunkedDraws:
    """The chunked drawer against the one-shot draw it replaced
    (``tests/draw_oracle.py``): the same bytes and the same final state of
    the generator, at any chunk size."""

    @settings(max_examples=60)
    @given(jump=st.sampled_from(JUMP_LAWS), volume=st.sampled_from(VOLUME_LAWS),
           r=st.sampled_from([0.0, 0.15, 0.9, 0.999]), theta=st.sampled_from([0.0, 0.0005]),
           n_events=st.integers(0, 400), seed=st.integers(0, 2**32 - 1),
           chunk=st.sampled_from([1, 7, CHUNK_EVENTS]))
    def test_chunks_equal_one_shot(self, jump, volume, r, theta, n_events, seed, chunk):
        params = ModelParams(r=r, f=0.9, jump=jump, volume=volume, theta=theta, rho=0.5)
        want_rng = np.random.default_rng(seed)
        want = draw_oracle.draw_events(params, n_events, want_rng)
        got, rng = chunked(params, n_events, seed, chunk)
        assert_same_draws(got, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        # the logged path's clock starts where the draws end
        clock = _time_stream(params, n_events, np.random.default_rng(seed))
        assert clock.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("jump", JUMP_LAWS, ids=lambda law: type(law).__name__)
    @pytest.mark.parametrize("volume", VOLUME_LAWS, ids=lambda law: type(law).__name__)
    def test_many_chunks_equal_one_shot(self, jump, volume):
        # past two whole chunks: the skips and the sign chain cross chunk ends
        params = ModelParams(r=0.6, f=0.9, jump=jump, volume=volume, theta=0.0005, rho=0.5)
        n_events = 2 * CHUNK_EVENTS + 1234
        want_rng = np.random.default_rng(4)
        want = draw_oracle.draw_events(params, n_events, want_rng)
        got, rng = chunked(params, n_events, 4, CHUNK_EVENTS)
        assert_same_draws(got, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        clock = _time_stream(params, n_events, np.random.default_rng(4))
        assert clock.bit_generator.state == want_rng.bit_generator.state
        rng = np.random.default_rng(4)
        assert_same_draws(draw_events(params, n_events, rng), want)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def score_by_chunks(cfg):
    """``run(cfg)`` on the fast path rebuilt from ``draw_events``: each
    slice of ``CHUNK_EVENTS`` events scored on its own (the sweeps counted
    by ``pnl_oracle.sweeps``, not by the kernel), and the per-level sums
    added."""
    book = shape_tick(cfg.params, cfg.n_levels)
    eff = book.per_level
    nmm = _nmm_level_split(eff, book.noise)
    draws = draw_events(cfg.params, cfg.n_events, np.random.default_rng(cfg.seed))
    stats = [np.zeros(cfg.n_levels, dtype=t) for t in (np.int64, float, float) * 2]
    executed = np.zeros(cfg.n_levels)
    tally = np.zeros(3, dtype=np.int64)
    for begin in range(0, cfg.n_events, CHUNK_EVENTS):
        part = EventDraws(*(getattr(draws, name)[begin:begin + CHUNK_EVENTS]
                            for name in DRAW_FIELDS))
        jump, wins, buy = part.is_jump, part.it_wins, part.noise_sign > 0
        for total, value in zip(stats, accumulate_pnl(
                jump, wins, part.jump_size, buy, part.noise_mag, part.drift,
                book.grid, book.informed, book.noise)):
            total += value
        executed += _executed_volume(part, book.grid, eff, nmm,
                                     sweeps(part.jump_size[jump], wins[jump], book.grid))
        tally += np.count_nonzero(jump), np.count_nonzero(jump & wins), np.count_nonzero(buy)
    counts = dict(zip(("n_jumps", "n_it_wins", "n_noise_buys"), tally.tolist()))
    return _pnl_rows(*stats), counts, executed


class TestChunkedFastPath:
    @pytest.mark.parametrize("n_events", [1000, CHUNK_EVENTS, 2 * CHUNK_EVENTS,
                                          2 * CHUNK_EVENTS + 777])
    @pytest.mark.parametrize("params", [
        REF,
        dataclasses.replace(REF, jump=Exponential(200.0), volume=LaplaceVolume(5.0),
                            theta=0.0005, rho=0.5),
    ], ids=["reference", "toxic-laplace"])
    def test_run_equals_per_chunk_scoring(self, params, n_events):
        cfg = SimConfig(params=params, n_events=n_events, seed=3, n_levels=8)
        res = run(cfg)
        pnl, counts, executed = score_by_chunks(cfg)
        assert {k: res.summary[k] for k in counts} == counts
        assert [(p.maker, p.level, p.n_fills) for p in res.pnl] == \
            [(p.maker, p.level, p.n_fills) for p in pnl]
        got = [(p.mean_gain, p.std_err) for p in res.pnl]
        want = [(p.mean_gain, p.std_err) for p in pnl]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.summary["executed_volume_per_level"], executed,
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(0, 60), m=st.integers(1, 6))
    def test_kernel_counts_the_sweeps(self, data, n, m):
        # jump sizes that often equal a level's distance: such a jump sweeps
        # the level (x <= B) without filling its probe (x < B)
        x = np.cumsum(data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 1.0),
                                         min_size=m, max_size=m)))
        x -= x[0] * data.draw(st.booleans())
        assert np.all(np.diff(x) > 0)
        size = np.array(data.draw(st.lists(st.sampled_from(x.tolist()) | st.floats(0.0, 6.0),
                                           min_size=n, max_size=n)), dtype=float)
        flags = st.lists(st.booleans(), min_size=n, max_size=n)
        jump, wins = (np.array(data.draw(flags), dtype=bool) for _ in range(2))
        swept = np.zeros((2, m), dtype=np.int64)
        zeros = np.zeros(n)
        accumulate_pnl(jump, wins, size, np.zeros(n, dtype=bool), zeros, zeros,
                       x, x, x, swept=swept)
        np.testing.assert_array_equal(swept, sweeps(size[jump], wins[jump], x))


class TestChunkedMemory:
    """Traced peak of a whole fast run: the draws and the kernel's
    temporaries of one chunk, whatever the number of events (the one-shot
    run peaked at 44 B per event, 44 MiB at 1e6 events)."""

    @pytest.mark.parametrize("n_events", [200_000, 1_000_000])
    def test_run_peak_is_bounded(self, n_events):
        cfg = SimConfig(params=REF, n_events=n_events, seed=1, n_levels=8)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


LOGGED_RUN = SimConfig(params=LOGGED, n_events=4000, seed=11, record_log=True,
                       n_levels=8, volume_scale=1000)


@pytest.fixture(scope="module")
def logged():
    return logged_run(LOGGED_RUN)


@pytest.fixture(scope="module")
def logged_result(logged):
    return logged[0]


@pytest.fixture(scope="module")
def logged_log(logged):
    return logged[2]


def redraw(cfg):
    """The draws and event times of ``run(cfg)``, re-drawn whole under its
    seed."""
    rng = np.random.default_rng(cfg.seed)
    draws = draw_events(cfg.params, cfg.n_events, rng)
    return draws, logged_oracle.event_times(cfg.params, cfg.n_events, rng)


def logged_run_object(cfg):
    """The ``_LoggedRun`` that ``run(cfg, log=...)`` drives, before its loop."""
    rng = np.random.default_rng(cfg.seed)
    clock = _time_stream(cfg.params, cfg.n_events, rng)
    return _LoggedRun(cfg, _draw_chunks(cfg.params, cfg.n_events, rng, CHUNK_EVENTS), clock)


class TestLoggedPath:
    def test_zero_profit_still_holds(self, logged_result):
        populated = populated_levels(logged_result)
        for p in logged_result.pnl:
            if (p.maker, p.level) in populated and p.n_fills > 100:
                assert abs(p.mean_gain) <= 3.5 * p.std_err, (p.maker, p.level)

    def test_deterministic_log(self):
        cfg = SimConfig(params=LOGGED, n_events=500, seed=21, record_log=True,
                        n_levels=6, volume_scale=1000)
        assert logged_run(cfg)[1] == logged_run(cfg)[1]

    @pytest.mark.parametrize("theta, rho", [(0.0, 0.0), (0.0005, 0.5)], ids=["test7", "toxic"])
    def test_log_path_gets_the_collected_text(self, tmp_path, theta, rho):
        # at the parameters of acceptance test 7, plain and toxic: the log a
        # run writes to its path is the text the per-event loop collects
        cfg = SimConfig(params=dataclasses.replace(LOGGED, theta=theta, rho=rho),
                        n_events=3000, seed=31, record_log=True, n_levels=8, volume_scale=1000)
        collected, text, _ = logged_oracle.run(cfg)
        streamed = run(cfg, log=tmp_path / "streamed.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == text.encode()
        assert repr(streamed.pnl) == repr(collected.pnl)
        assert streamed.summary == collected.summary

    def test_export_requires_log(self, tmp_path):
        # a logged run writes its log only to a path, and only a logged run
        # takes one: either way the run fails before any draw
        fast = SimConfig(params=REF, n_events=100, seed=1, n_levels=4)
        with mock.patch.object(simulator, "_draw_chunks", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match=r"^record_log=True needs a log path$"):
                run(LOGGED_RUN)
            with pytest.raises(ValueError, match=r"^a log path needs record_log=True$"):
                run(fast, log=tmp_path / "mbo.csv")
        assert not (tmp_path / "mbo.csv").exists()

    def test_log_path_needs_record_log(self, tmp_path):
        cfg = SimConfig(params=REF, n_events=100, seed=1, n_levels=4)
        with pytest.raises(ValueError, match=r"^a log path needs record_log=True$"):
            run(cfg, log=tmp_path / "mbo.csv")
        assert not (tmp_path / "mbo.csv").exists()

    def test_roundtrip_export_parse(self, logged_log):
        events = logged_log
        parsed = parse(io.StringIO(dumps(events)), tick=LOGGED.tick)
        assert list(parsed) == list(events)

    def test_quote_series_reproduced_by_replay(self, logged_log):
        _, _, oracle = logged_oracle.run(LOGGED_RUN)
        assert_replay_quotes(logged_log, oracle.snapshots)

    @given(n_events=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           n_levels=st.integers(1, 10), volume_scale=st.sampled_from([1, 10, 1000, 10**6]))
    def test_replay_conserves_executed_volume(self, n_events, seed, n_levels, volume_scale):
        result, _, log = logged_run(SimConfig(params=LOGGED, n_events=n_events, seed=seed,
                                              record_log=True, n_levels=n_levels,
                                              volume_scale=volume_scale))
        replay = reconstruct(log)
        passive = sum(f.qty for f in replay.fills if not f.aggressor)
        aggressive = sum(f.qty for f in replay.fills if f.aggressor)
        assert passive == aggressive == result.summary["executed_units_total"]

    def test_aggressive_trades_match_events(self, logged_log):
        # one aggressive IT order per jump that found volume in reach (the
        # informed trader also sweeps leftover volume after a lost race)
        replay = reconstruct(logged_log)
        fills, lcs = replay.fills, replay.lifecycles
        takers = lcs.take(fills.lifecycle[fills.aggressor])        # one lifecycle per fill
        it_orders = set(takers.order_id[takers.participant_label == "IT"].tolist())
        _, _, oracle = logged_oracle.run(LOGGED_RUN)
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
        won_at = times[draws.is_jump & draws.it_wins]
        assert len(won_at) > 100
        replay = reconstruct(logged_run(cfg)[2])
        fills, label = replay.fills, replay.lifecycles.participant_label[replay.fills.lifecycle]
        assert set(label[fills.aggressor]) <= {"IT", "NT"}
        it_trades_at = fills.ts_ns[fills.aggressor & (label == "IT")]
        assert np.isin(won_at, it_trades_at).all()

    def test_replenishment_restores_closed_form(self, logged_log):
        # end-of-log resting volume per ask level == integer-quantized targets
        replay = reconstruct(logged_log)
        scale = 1000
        draws, _ = redraw(LOGGED_RUN)
        price = 100.0 + sum(draws.jump_size[draws.is_jump].tolist())
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

    def test_labels_present(self, logged_log):
        labels = {ev.participant_label for ev in logged_log}
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

    def test_unbounded_book(self, tmp_path):
        params = ModelParams(r=0.15, f=0.0, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                             tick=0.01)
        with pytest.raises(ValueError, match="unbounded within the simulated levels"):
            run(SimConfig(params=params, n_events=10, seed=0, record_log=True),
                log=tmp_path / "mbo.csv")

    @pytest.mark.parametrize("record_log", [False, True])
    def test_unbounded_book_fails_before_any_draw(self, tmp_path, record_log):
        params = ModelParams(r=0.15, f=0.0, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                             tick=0.01)
        cfg = SimConfig(params=params, n_events=10**6, seed=0, record_log=record_log)
        # both paths draw through _draw_chunks (draw_events is one chunk of it)
        with mock.patch.object(simulator, "_draw_chunks", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match="unbounded within the simulated levels"):
                run(cfg, log=tmp_path / "mbo.csv" if record_log else None)

    def test_price_path_must_stay_on_a_finite_grid(self, tmp_path):
        # a drift of 1e100 takes the path beyond 2**52 ticks, with no
        # RuntimeWarning on the way to the error
        params = dataclasses.replace(LOGGED, theta=1e100)
        with pytest.raises(ValueError, match="^record_log needs a finite price path"):
            run(SimConfig(params=params, n_events=10, seed=0, record_log=True),
                log=tmp_path / "mbo.csv")

    @pytest.mark.parametrize("existing", [b"an earlier log\r\n", None], ids=["existing", "missing"])
    def test_first_chunk_error_leaves_the_log_path_as_it_was(self, tmp_path, existing):
        # the log file is opened only once the first chunk has made its first block
        path = tmp_path / "mbo.csv"
        if existing is not None:
            path.write_bytes(existing)
        params = dataclasses.replace(LOGGED, theta=1e100)
        with pytest.raises(ValueError, match="^record_log needs a finite price path"):
            run(SimConfig(params=params, n_events=10, seed=0, record_log=True), log=path)
        assert (path.read_bytes() if path.exists() else None) == existing

    def test_later_chunk_error_leaves_the_earlier_chunks_rows(self, tmp_path, monkeypatch):
        # chunks of 100 events write fewer rows than a block: each chunk's
        # last block ends with it
        monkeypatch.setattr(simulator, "CHUNK_EVENTS", 100)
        cfg = SimConfig(params=LOGGED, n_events=300, seed=1, record_log=True, n_levels=4,
                        volume_scale=1000)
        full, path = tmp_path / "full.csv", tmp_path / "mbo.csv"
        run(cfg, log=full)
        load, emitted = simulator._LoggedRun._load, []

        def fail_at_chunk_2(lr, draws):
            emitted.append(lr.n_rows + len(lr._lines))     # rows emitted before this chunk
            if len(emitted) == 3:
                raise ValueError("chunk 2")
            load(lr, draws)

        monkeypatch.setattr(simulator._LoggedRun, "_load", fail_at_chunk_2)
        with pytest.raises(ValueError, match="^chunk 2$"):
            run(cfg, log=path)
        text = path.read_bytes().decode()
        assert full.read_bytes().decode().startswith(text)
        assert text.count("\r\n") - 1 == emitted[2] > emitted[1] > 0
        assert emitted[2] < mbo.BLOCK_ROWS

    def test_volume_units_must_fit_in_int64(self, tmp_path):
        with pytest.raises(ValueError, match=f"^volume_scale {10**30} is too large: "):
            run(SimConfig(params=LOGGED, n_events=10, seed=0, record_log=True,
                          volume_scale=10**30), log=tmp_path / "mbo.csv")
        # a large scale that still fits runs, and its total, past int64,
        # stays exact
        res, _, log = logged_run(SimConfig(params=LOGGED, n_events=20, seed=0, record_log=True,
                                           volume_scale=10**17))
        replay = reconstruct(log)
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
            expected, text, oracle = logged_oracle.run(cfg)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                logged_run(cfg)
            return
        result, written, log = logged_run(cfg)
        assert written == text
        assert list(log) == oracle.rows
        assert_replay_quotes(log, oracle.snapshots)
        assert result.pnl == expected.pnl
        assert result.summary == expected.summary

        # the kernel reads the distances at jumps and noise buys, the depths
        # at buys; the oracle fills only those rows (a run of one chunk)
        new = logged_run_object(cfg)
        for _ in new.blocks():
            pass
        draws, _ = redraw(cfg)
        buy = draws.noise_sign > 0
        for name, rows in (("probe_x", draws.is_jump | buy), ("probe_imm", buy),
                           ("probe_nmm", buy)):
            assert (getattr(new, name)[rows].tobytes()
                    == getattr(oracle, name)[rows].tobytes()), name

    def test_long_toxic_run_matches_oracle(self):
        params = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01), volume=NormalVolume(10.0),
                             tick=0.01, offset_d=0.0, theta=0.0005, rho=0.5)
        cfg = SimConfig(params=params, n_events=3000, seed=5, record_log=True,
                        n_levels=8, volume_scale=1000)
        _, text, oracle = logged_oracle.run(cfg)
        _, written, log = logged_run(cfg)
        assert written == text
        assert_replay_quotes(log, oracle.snapshots)

    def test_chunk_boundaries_inside_a_run(self, monkeypatch):
        # 2 * CHUNK_EVENTS + 777 events, at a chunk size that keeps the
        # per-event oracle quick: the log carries across two chunk ends
        monkeypatch.setattr(simulator, "CHUNK_EVENTS", 1024)
        cfg = SimConfig(params=LOGGED, n_events=2 * simulator.CHUNK_EVENTS + 777, seed=9,
                        record_log=True, n_levels=8, volume_scale=1000)
        expected, text, oracle = logged_oracle.run(cfg)
        result, written, log = logged_run(cfg)
        assert written == text
        assert_replay_quotes(log, oracle.snapshots)
        assert result.summary == expected.summary
        # the oracle sums the probe fills of the whole run at once
        assert_pnl_close(result.pnl, expected.pnl)


#: bound on a mean gain or standard error summed chunk by chunk against
#: the same sums made at once, relative to itself or to the largest value
#: of its column (a mean gain may cancel to near zero).  Only the order of
#: the additions differs: on 96 logged runs of the test-7 and toxic models
#: at chunk sizes 1, 7 and 100, no value moved by 2e-14 of itself.
PNL_RTOL = 1e-11


def assert_gains_close(got, want):
    """``(mean_gain, std_err)`` rows within PNL_RTOL, nan where nan."""
    for g, w in zip(np.asarray(got, dtype=float).T, np.asarray(want, dtype=float).T):
        scale = np.abs(w[np.isfinite(w)]).max(initial=0.0)
        np.testing.assert_allclose(g, w, rtol=PNL_RTOL, atol=PNL_RTOL * scale)


def assert_pnl_close(got, want):
    """Equal makers, levels and fill counts, and gains within PNL_RTOL."""
    assert [(p.maker, p.level, p.n_fills) for p in got] == \
        [(p.maker, p.level, p.n_fills) for p in want]
    assert_gains_close([(p.mean_gain, p.std_err) for p in got],
                       [(p.mean_gain, p.std_err) for p in want])


class TestLoggedChunkSize:
    """The outputs of logged ``lobeq simulate`` at chunk sizes 1, 7 and
    2**16 (one chunk), on the model of acceptance test 7 and a toxic one:
    ``mbo.csv`` and ``summary.json`` byte for byte, ``pnl.csv``'s counts
    exactly and its gains within PNL_RTOL."""

    CHUNKS = (1, 7, 2**16)

    @staticmethod
    def outputs(doc, chunk):
        with mock.patch.object(simulator, "CHUNK_EVENTS", chunk), \
                tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(doc))
            assert main(["simulate", "--config", str(config), "--out", f"{tmp}/out"]) == 0
            return {name: (Path(tmp) / "out" / name).read_bytes()
                    for name in ("mbo.csv", "summary.json", "pnl.csv")}

    @settings(max_examples=20)
    @given(theta_rho=st.sampled_from([(0.0, 0.0), (0.0005, 0.5)]),
           n_events=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
    def test_outputs_do_not_depend_on_the_chunk_size(self, theta_rho, n_events, seed):
        theta, rho = theta_rho
        params = {"r": 0.15, "f": 0.9, "jump": {"type": "pareto", "shape": 2.5, "scale": 0.01},
                  "volume": {"type": "normal", "sigma": 10.0}, "tick": 0.01, "offset_d": 0.0,
                  "lambda_i": 0.15, "lambda_u": 0.85, "theta": theta, "rho": rho}
        doc = {"params": params, "simulate": {"n_events": n_events, "seed": seed, "n_levels": 8,
                                              "record_log": True, "volume_scale": 1000}}
        one, *chunked = (self.outputs(doc, chunk) for chunk in self.CHUNKS[::-1])
        for got in chunked:
            assert got["mbo.csv"] == one["mbo.csv"]
            assert got["summary.json"] == one["summary.json"]
            rows, want = (list(csv.reader(io.StringIO(out["pnl.csv"].decode())))
                          for out in (got, one))
            assert [row[:3] for row in rows] == [row[:3] for row in want]
            assert_gains_close([row[3:] for row in rows[1:]], [row[3:] for row in want[1:]])


class TestRefill:
    """Each of ``REFILL_CASES`` reaches ``_LoggedRun._refill`` with the kind
    of sweep or event it is named for."""

    @staticmethod
    def traced_run(cfg):
        """The run, its log rows, and per refill the (layout walked,
        budget, takes) of the sweep it refills."""
        lr = logged_run_object(cfg)
        sweep, refill, refills, last = lr._sweep, lr._refill, [], []

        def traced_sweep(ts, side, idxs, budget, label, limit_idx=None):
            last[:] = [idxs, budget]
            return sweep(ts, side, idxs, budget, label, limit_idx)

        def traced_refill(ts, side, taken):
            refills.append((*last, taken))
            refill(ts, side, taken)

        lr._sweep, lr._refill = traced_sweep, traced_refill
        rows = list(parse(io.StringIO(HEADER_LINE + "".join(lr.blocks()), newline="")))
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
        _, rows, refills = self.traced_run(cfg)
        draws, times = redraw(cfg)
        silent = ~draws.is_jump & (np.round(draws.noise_mag * cfg.volume_scale) == 0)
        assert refills and silent.any()
        assert not set(times[silent].tolist()) & {r.ts_ns for r in rows}

    def test_lost_races(self):
        lr, rows, refills = self.traced_run(REFILL_CASES["lost_races"])
        draws, times = redraw(REFILL_CASES["lost_races"])
        lost = draws.is_jump & ~draws.it_wins & (np.array(lr.jump_volume) > 0)
        assert refills and lost.any()
        for ts in times[lost].tolist():
            kinds = [(r.action, r.participant_label) for r in rows if r.ts_ns == ts]
            first_it = kinds.index(("add", "IT"))
            assert ("cancel", "IMM") in kinds[:first_it]


class TestLoggedMemory:
    """Peak traced allocation of a logged run at the parameters of
    acceptance test 7, per order it adds: the run holds the tables of one
    chunk of events and writes each block of its log as it is cut, so
    keeping anything more per event, order or row shows up here."""

    N_EVENTS = 20_000

    def test_peak_per_order(self, tmp_path, monkeypatch):
        # about 20 chunks: one chunk's tables at a time, so the peak is a
        # tenth of a one-chunk run's (test_streamed_peak_per_order)
        monkeypatch.setattr(simulator, "CHUNK_EVENTS", 1024)
        cfg = SimConfig(params=LOGGED, n_events=self.N_EVENTS, seed=1, record_log=True,
                        n_levels=8, volume_scale=1000)
        tracemalloc.start()
        try:
            run(cfg, log=tmp_path / "mbo.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_orders = (tmp_path / "mbo.csv").read_text().count(",add,")
        assert n_orders > 100_000
        assert peak / n_orders < 30.0

    def test_streamed_peak_per_order(self, tmp_path):
        # one chunk: its tables, the book and a block of text at a time
        cfg = SimConfig(params=LOGGED, n_events=self.N_EVENTS, seed=1, record_log=True,
                        n_levels=8, volume_scale=1000)
        tracemalloc.start()
        try:
            run(cfg, log=tmp_path / "mbo.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_orders = (tmp_path / "mbo.csv").read_text().count(",add,")
        assert n_orders > 100_000
        assert peak / n_orders < 180.0

    def test_orders_are_small_records(self):
        # no larger than a slotted (id, participant, units) record, 56 bytes
        cfg = SimConfig(params=LOGGED, n_events=2000, seed=1, record_log=True,
                        n_levels=8, volume_scale=1000)
        lr = logged_run_object(cfg)
        for _ in lr.blocks():
            pass
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

    def test_written_like_its_rows(self, tmp_path):
        rows = self.ROWS + [EventLog.Row(3, 3, "add", "ask", -0.0, 1, None, None),
                            EventLog.Row(3, 4, "add", "ask", 0.0, 1, None, None)]
        path = tmp_path / "log.csv"
        write_csv([csv_body(event_log(rows))], path)
        text = path.read_bytes().decode()
        assert text == dumps(rows)
        assert list(parse(path)) == rows
        assert ",-0,1,," in text and ",0,1,," in text

