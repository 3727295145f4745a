"""Probe fill/P&L kernel: fill semantics, and the numpy kernel against the
sequential oracle kept in ``pnl_oracle``.

The two sum in different orders, so the comparison bound is stated rather
than bit identity: fill counts and event counters exactly, float sums and
executed volumes within rtol 1e-10 (atol 1e-12 for sums that cancel to
about zero).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from lobeq.equilibrium import ModelParams, shape_tick
from lobeq.kernels import accumulate_pnl
from lobeq.laws import NormalVolume, Pareto
from lobeq.simulator import (
    EventDraws,
    _event_counts,
    _executed_volume,
    _nmm_level_split,
    draw_events,
)
from pnl_oracle import accumulate_pnl as oracle_pnl

RTOL = 1e-10
ATOL = 1e-12


def kernel_inputs(draws):
    return (draws.is_jump, draws.it_wins, draws.jump_size,
            (draws.noise_sign > 0).astype(np.uint8), draws.noise_mag, draws.drift)


def make_outputs(m):
    return [np.zeros(m, np.int64), np.zeros(m), np.zeros(m),
            np.zeros(m, np.int64), np.zeros(m), np.zeros(m),
            np.zeros(m), np.zeros(3, np.int64)]


def run_oracle(draws, book):
    """(imm_n, imm_sum, imm_sumsq, nmm_n, nmm_sum, nmm_sumsq, exec_vol,
    counters) of the sequential oracle on a static book."""
    outs = make_outputs(len(book[0]))
    oracle_pnl(*kernel_inputs(draws), *book, *outs)
    return outs


def run_numpy(draws, book):
    """The same outputs from the numpy kernel and the simulator's
    executed-volume and counter helpers."""
    x, imm_ahead, nmm_ahead, eff_lvl, nmm_lvl = book
    counts = _event_counts(draws)
    return [*accumulate_pnl(*kernel_inputs(draws), x, imm_ahead, nmm_ahead),
            _executed_volume(draws, x, eff_lvl, nmm_lvl),
            np.array([counts["n_jumps"], counts["n_it_wins"], counts["n_noise_buys"]])]


def assert_matches(got, want):
    """Integer outputs exactly, float outputs within the stated bound."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        w = np.asarray(w)
        if w.dtype.kind == "i":
            np.testing.assert_array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=RTOL, atol=ATOL)


def make_draws(is_jump, it_wins, jump_size, noise_buy, noise_mag, drift):
    """Event draws from per-event columns; a noise event that is not a buy
    is a sell."""
    is_jump = np.asarray(is_jump, np.uint8)
    sign = np.where(is_jump == 1, 0, np.where(np.asarray(noise_buy) == 1, 1, -1))
    return EventDraws(is_jump, np.asarray(it_wins, np.uint8),
                      np.asarray(jump_size, float), sign.astype(np.int8),
                      np.asarray(noise_mag, float), np.asarray(drift, float))


def scripted_draws(rows):
    """rows of (is_jump, it_wins, jump_size, noise_buy, noise_mag, drift)."""
    return make_draws(*zip(*rows))


class TestSemantics:
    """Fill rules on scripted events, for the numpy kernel."""

    run = staticmethod(run_numpy)

    # one level at distance 1.0; informed queue depth 2, noise queue depth 1
    BOOK = (np.array([1.0]), np.array([2.0]), np.array([1.0]),
            np.array([5.0]), np.array([1.0]))

    def test_jump_fill_rules(self):
        draws = scripted_draws([
            (1, 1, 1.5, 0, 0.0, 0.0),   # jump, race lost: both probes fill
            (1, 0, 1.5, 0, 0.0, 0.0),   # jump, cancel wins: only the noise probe
            (1, 1, 0.5, 0, 0.0, 0.0),   # jump below the level: nothing
        ])
        imm_n, imm_s, _, nmm_n, nmm_s, _, exec_vol, counters = self.run(draws, self.BOOK)
        assert imm_n[0] == 1 and imm_s[0] == pytest.approx(-0.5)
        assert nmm_n[0] == 2 and nmm_s[0] == pytest.approx(-1.0)
        # sweeps: winner takes the whole level, loser leaves the noise part
        assert exec_vol[0] == pytest.approx(5.0 + 1.0)
        assert counters.tolist() == [3, 2, 0]

    def test_noise_fill_rules(self):
        draws = scripted_draws([
            (0, 0, 0.0, 1, 1.5, 0.0),    # buy above noise depth only
            (0, 0, 0.0, 1, 2.5, 0.0),    # buy above both depths
            (0, 0, 0.0, 0, 9.9, 0.0),    # sell: ask book untouched
            (0, 0, 0.0, 1, 0.5, 0.2),    # small buy, drifting price
        ])
        imm_n, imm_s, _, nmm_n, nmm_s, _, exec_vol, counters = self.run(draws, self.BOOK)
        assert imm_n[0] == 1 and imm_s[0] == pytest.approx(1.0)
        assert nmm_n[0] == 2 and nmm_s[0] == pytest.approx(2.0)
        # physical fills consume the visible book from the front
        assert exec_vol[0] == pytest.approx(1.5 + 2.5 + 0.5)
        assert counters.tolist() == [0, 0, 3]

    def test_probe_boundaries_are_strict(self):
        draws = scripted_draws([
            (1, 1, 1.0, 0, 0.0, 0.0),    # jump exactly at the level distance
            (0, 0, 0.0, 1, 2.0, 0.0),    # buy exactly at informed depth
        ])
        imm_n, _, _, nmm_n, _, _, exec_vol, _ = self.run(draws, self.BOOK)
        assert imm_n[0] == 0           # B > x and Q > L are strict
        assert nmm_n[0] == 1           # noise depth 1 < 2
        # the sweep at distance <= B still executes the level
        assert exec_vol[0] == pytest.approx(5.0 + 2.0)

    def test_unbounded_depth_never_fills_probe(self):
        book = (np.array([1.0]), np.array([np.inf]), np.array([3.0]),
                np.array([0.0]), np.array([0.0]))
        draws = scripted_draws([(0, 0, 0.0, 1, 1e12, 0.0)])
        outs = self.run(draws, book)
        assert outs[0][0] == 0          # infinite depth ahead: never reached
        assert outs[3][0] == 1          # the finite noise queue still fills

    def test_fills_stop_at_first_missed_level(self):
        # the second level is out of reach, so the third never fills even
        # though its own condition holds
        book = (np.array([0.5, 2.0, 1.0]), np.array([1.0, 9.0, 1.0]),
                np.array([1.0, 9.0, 1.0]), np.zeros(3), np.zeros(3))
        draws = scripted_draws([(1, 1, 1.5, 0, 0.0, 0.0), (0, 0, 0.0, 1, 3.0, 0.0)])
        imm_n, _, _, nmm_n, _, _, _, _ = self.run(draws, book)
        assert imm_n.tolist() == [2, 0, 0]
        assert nmm_n.tolist() == [2, 0, 0]


class TestOracleSemantics(TestSemantics):
    """The same fill rules for the sequential oracle."""

    run = staticmethod(run_oracle)


# -- property tests: numpy kernel against the oracle ---------------------------

DISTANCES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
                      st.floats(0.0, 2.0))
DEPTHS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, np.inf]),
                   st.floats(0.0, 4.0))
LEVEL_SIZES = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def event_draws(draw, n):
    """Random events whose sizes often tie the book's distances and depths."""
    flags = arrays(np.uint8, n, elements=st.integers(0, 1))
    return make_draws(
        draw(flags), draw(flags),
        draw(arrays(float, n, elements=st.one_of(DISTANCES, st.floats(0.0, 3.0)))),
        draw(flags),
        draw(arrays(float, n, elements=st.one_of(DEPTHS.filter(np.isfinite),
                                                 st.floats(0.0, 10.0)))),
        draw(arrays(float, n, elements=st.floats(-0.1, 0.1))),
    )


def oracle_pnl_only(draws, x, imm_ahead, nmm_ahead, outs):
    """Accumulate the oracle's probe statistics into ``outs`` (its
    executed-volume inputs are left at zero)."""
    zeros = np.zeros(len(x))
    oracle_pnl(*kernel_inputs(draws), x, imm_ahead, nmm_ahead, zeros, zeros, *outs)


class TestAgainstOracle:
    @given(data=st.data(), n=st.integers(0, 40), m=st.integers(1, 5))
    def test_static_book(self, data, n, m):
        draws = data.draw(event_draws(n))
        # arbitrary, even non-monotone, curves with inf depth and ties
        x = data.draw(arrays(float, m, elements=DISTANCES))
        imm_ahead = data.draw(arrays(float, m, elements=DEPTHS))
        nmm_ahead = data.draw(arrays(float, m, elements=DEPTHS))
        want = make_outputs(m)
        oracle_pnl_only(draws, x, imm_ahead, nmm_ahead, want)
        got = accumulate_pnl(*kernel_inputs(draws), x, imm_ahead, nmm_ahead)
        assert_matches(got, want[:6])

    @given(data=st.data(), n=st.integers(0, 30), m=st.integers(1, 5))
    def test_per_event_book(self, data, n, m):
        draws = data.draw(event_draws(n))
        x = data.draw(arrays(float, (n, m), elements=DISTANCES))
        imm_ahead = data.draw(arrays(float, (n, m), elements=DEPTHS))
        nmm_ahead = data.draw(arrays(float, (n, m), elements=DEPTHS))
        # one oracle call per event, each against the book that event met
        want = make_outputs(m)
        for e in range(n):
            one = EventDraws(*(getattr(draws, f)[e:e + 1] for f in (
                "is_jump", "it_wins", "jump_size", "noise_sign", "noise_mag", "drift")))
            oracle_pnl_only(one, x[e], imm_ahead[e], nmm_ahead[e], want)
        got = accumulate_pnl(*kernel_inputs(draws), x, imm_ahead, nmm_ahead)
        assert_matches(got, want[:6])

    @given(data=st.data(), n=st.integers(1, 40), m=st.integers(1, 5))
    def test_executed_volume_and_counters(self, data, n, m):
        draws = data.draw(event_draws(n))
        # a valid static book: nondecreasing finite depths, zero-width levels
        x = np.cumsum(data.draw(arrays(float, m, elements=LEVEL_SIZES)))
        informed = np.cumsum(data.draw(arrays(float, m, elements=LEVEL_SIZES)))
        noise = np.minimum(informed, np.cumsum(data.draw(arrays(float, m, elements=LEVEL_SIZES))))
        eff_lvl = np.diff(informed, prepend=0.0)
        book = (x, informed, noise, eff_lvl,
                np.array(_nmm_level_split(eff_lvl.tolist(), noise.tolist())))
        assert_matches(run_numpy(draws, book), run_oracle(draws, book))


class TestParity:
    def test_300k_events_match_oracle(self):
        params = ModelParams(r=0.6, f=0.7, jump=Pareto(2.5, 0.01),
                             volume=NormalVolume(8.0), theta=0.004, rho=0.4,
                             tick=0.01, offset_d=0.003)
        book = shape_tick(params, 7)
        draws = draw_events(params, 300_000, np.random.default_rng(17))
        eff = np.diff(book.informed, prepend=0.0)
        shaped = (book.grid, book.informed, book.noise, eff,
                  np.array(_nmm_level_split(eff.tolist(), book.noise.tolist())))
        assert_matches(run_numpy(draws, shaped), run_oracle(draws, shaped))
