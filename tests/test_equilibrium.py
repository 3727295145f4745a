"""Book shapes, spreads and gains: break-even closure, reductions,
monotonicity, independent-oracle agreement."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from lobeq.equilibrium import (
    UNBOUNDED,
    JumpSource,
    ModelParams,
    MultiSourceParams,
    ParamGrid,
    SolverError,
    UnfillableLevelError,
    ZeroSpreadRegime,
    book_curves,
    gain_imm,
    shape_continuous,
    shape_multi,
    shape_tick,
    spread,
    solve_spreads,
    strict_ceil,
    theta_bar,
)
from lobeq.laws import Exponential, LaplaceVolume, NormalVolume, Pareto, PointMass

import gain_oracle
from gain_oracle import gain_imm_multi, gain_nmm


def reference_params(**overrides):
    """The worked numeric configuration used throughout: r = f = 0.9,
    Pareto(3, 0.005) jumps, centered normal volumes with sigma = 10."""
    defaults = dict(r=0.9, f=0.9, jump=Pareto(3.0, 0.005),
                    volume=NormalVolume(10.0))
    defaults.update(overrides)
    return ModelParams(**defaults)


def emax_by_quadrature(jump, x):
    """E[max(B/x, 1)] via adaptive quadrature, independent of closed forms.

    Split at the kink b = x: the integrand is 1 below it, b/x above it.
    """
    if isinstance(jump, Pareto):
        a, s = jump.shape, jump.scale
        pdf = lambda b: a * s**a * b ** (-a - 1.0)
        lo = s
    else:
        pdf = lambda b: jump.rate * math.exp(-jump.rate * b)
        lo = 0.0
    kink = max(x, lo)
    below = quad(pdf, lo, kink, epsabs=1e-14, epsrel=1e-12)[0] if kink > lo else 0.0
    above = quad(lambda b: (b / x) * pdf(b), kink, np.inf,
                 epsabs=1e-14, epsrel=1e-12)[0]
    return below + above


def quantile_by_bisection(volume, p):
    lo, hi = -1.0, 1.0
    while volume.cdf(lo) > p:
        lo *= 2
    while volume.cdf(hi) < p:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if volume.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSpreadContinuous:
    def test_reference_configuration(self):
        p = reference_params()
        sol = spread(p)
        rhs = 1.0 + (1.0 / (2.0 * p.f)) * (1.0 / p.r - 1.0)
        assert round(rhs, 7) == 1.0617284
        assert abs(p.jump.emax_ratio(sol.phi) - rhs) / rhs <= 1e-12
        assert sol.phi == pytest.approx(0.0100415, abs=1e-6)
        assert sol.mu == pytest.approx(0.0104004, abs=1e-6)
        assert sol.phi < sol.mu
        assert sol.residual <= 1e-12

    def test_quadrature_cross_check(self):
        # the root of the closed-form solve satisfies the equation under
        # an independently integrated emax as well
        p = reference_params()
        sol = spread(p)
        rhs = 1.0 + (1.0 / (2.0 * p.f)) * (1.0 / p.r - 1.0)
        assert emax_by_quadrature(p.jump, sol.phi) == pytest.approx(rhs, rel=1e-9)

    def test_f_equal_one_phi_is_mu(self):
        sol = spread(reference_params(f=1.0))
        assert sol.phi == sol.mu

    def test_monotone_in_f_and_r(self):
        phi_05 = spread(reference_params(f=0.5)).phi
        phi_09 = spread(reference_params(f=0.9)).phi
        assert phi_05 < phi_09
        phi_r05 = spread(reference_params(r=0.5)).phi
        phi_r09 = spread(reference_params(r=0.9)).phi
        assert phi_r05 < phi_r09

    def test_zero_spread_regimes(self):
        with pytest.raises(ZeroSpreadRegime):
            spread(reference_params(f=0.0))
        with pytest.raises(ZeroSpreadRegime):
            spread(reference_params(r=None, lambda_i=0.0, lambda_u=1.0))

    def test_explicit_branch_below_support(self):
        # heavy noise flow pushes the root below the Pareto support where
        # emax(x) = E[B]/x solves in closed form
        p = reference_params(r=0.15, f=0.9, jump=Pareto(2.5, 0.01))
        sol = spread(p)
        rhs = 1.0 + (1.0 / (2.0 * p.f)) * (1.0 / p.r - 1.0)
        assert sol.phi == pytest.approx(p.jump.mean / rhs, rel=1e-14)
        assert sol.phi < p.jump.support_inf
        assert sol.solver_iters == 0


class TestSpreadTick:
    def test_reference_tick_quantities(self):
        sol = spread(reference_params(tick=0.01, offset_d=0.0))
        assert sol.k_d == 3
        assert sol.spread_tick == pytest.approx(0.04, abs=1e-15)

    def test_half_tick_offset(self):
        sol = spread(reference_params(tick=0.01, offset_d=0.005))
        assert sol.k_d == 2
        assert sol.spread_tick == pytest.approx(0.03, abs=1e-15)

    def test_strict_ceiling(self):
        # 2.0 and 2.0000000001: the boundary level stays empty
        got = strict_ceil(np.array([1.0041, 2.0, 2.0000000001, -0.3, 0.0]))
        assert got.dtype == np.int64
        assert got.tolist() == [2, 3, 3, 0, 1]

    @pytest.mark.parametrize("tick,d", [(0.01, 0.0), (0.01, 0.005),
                                        (0.02, 0.013), (0.005, 0.0)])
    def test_first_occupied_level_consistency(self, tick, d):
        p = reference_params(tick=tick, offset_d=d)
        sol = spread(p)
        book = shape_tick(p, 12)
        occupied = np.nonzero(book.per_level > 0.0)[0]
        assert occupied[0] + 1 == sol.k_d

    def test_single_level_book_with_offset(self):
        # few jumps push the spread below half a tick; the very first grid
        # level then carries depth
        p = reference_params(r=0.05, f=1.0, tick=0.01, offset_d=0.005)
        assert spread(p).phi < 0.005
        book = shape_tick(p, 1)
        assert book.informed[0] > 0.0

    def test_boundary_aligned_spread(self):
        # place the grid so that phi - d is an exact multiple of the tick:
        # the boundary level must stay empty
        p = reference_params(tick=0.01)
        phi = spread(p).phi
        d = phi - 0.01
        p2 = reference_params(tick=0.01, offset_d=d)
        sol = spread(p2)
        assert sol.k_d == 3
        book = shape_tick(p2, 6)
        assert book.per_level[1] == 0.0      # level 2 sits exactly at phi
        assert book.per_level[2] > 0.0


class TestShapeContinuous:
    def test_reference_point_against_oracle(self):
        # independent path: emax by quadrature, break-even argument by its
        # defining formula, depth by CDF bisection
        p = reference_params()
        x = 0.02
        emax = emax_by_quadrature(p.jump, x)
        h = (1.0 - p.f) + p.f / (1.0 - p.r) - (p.f * p.r / (1.0 - p.r)) * emax
        assert h == pytest.approx(0.93671875, rel=1e-9)
        oracle_depth = quantile_by_bisection(p.volume, h)
        book = shape_continuous(p, [x])
        assert book.informed[0] == pytest.approx(oracle_depth, rel=1e-9)
        assert book.informed[0] == pytest.approx(15.278, abs=1e-3)

    def test_f_one_books_coincide(self):
        book = shape_continuous(reference_params(f=1.0), np.linspace(0.005, 0.1, 25))
        assert np.array_equal(book.informed, book.noise)

    def test_f_zero_unbounded(self):
        book = shape_continuous(reference_params(f=0.0), np.linspace(0.005, 0.1, 5))
        assert np.all(book.informed == UNBOUNDED)

    def test_zero_below_spread(self):
        p = reference_params()
        phi = spread(p).phi
        book = shape_continuous(p, [phi * 0.5, phi * 0.99, phi * 1.01, phi * 2])
        assert book.informed[0] == 0.0
        assert book.informed[1] == 0.0
        assert book.informed[2] > 0.0
        assert book.informed[3] > book.informed[2]

    def test_dominance_identity(self):
        # 1 - F_u(L_i) = f (1 - F_u(L_u)) wherever both depths are interior
        p = reference_params(f=0.7)
        x = np.linspace(0.012, 0.2, 40)
        book = shape_continuous(p, x)
        mask = (book.noise > 0) & np.isfinite(book.informed)
        lhs = 1.0 - p.volume.cdf(book.informed[mask])
        rhs = p.f * (1.0 - p.volume.cdf(book.noise[mask]))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_informed_at_least_noise(self):
        p = reference_params(f=0.6)
        book = shape_continuous(p, np.linspace(0.005, 0.3, 60))
        assert np.all(book.informed >= book.noise)


def random_params(rng):
    jump = (Pareto(rng.uniform(2.2, 4.0), rng.uniform(0.002, 0.05))
            if rng.random() < 0.5 else Exponential(rng.uniform(20.0, 200.0)))
    volume = (NormalVolume(rng.uniform(2.0, 20.0))
              if rng.random() < 0.5 else LaplaceVolume(rng.uniform(2.0, 15.0)))
    return ModelParams(r=rng.uniform(0.05, 0.95), f=rng.uniform(0.05, 1.0),
                       jump=jump, volume=volume)


def root_solve_depth(p, x, lo=0.0, hi=None):
    """Depth solving gain_imm(x, L) = 0 by bisection over L (independent of
    the closed-form inversion; the gain decreases in L)."""
    g_lo = gain_imm(p, x, lo)
    if g_lo < 0.0:
        return 0.0
    hi = hi or 1.0
    while gain_imm(p, x, hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            return UNBOUNDED
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain_imm(p, x, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBreakEvenClosure:
    def test_gain_vanishes_on_own_curve(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            p = random_params(rng)
            phi = spread(p).phi
            xs = phi * np.geomspace(1.05, 6.0, 8)
            book = shape_continuous(p, xs)
            for x, l_i, l_u in zip(xs, book.informed, book.noise):
                if np.isfinite(l_i):
                    assert abs(gain_imm(p, x, l_i)) <= 1e-9
                if l_u > 0.0:
                    assert abs(gain_nmm(p, x, l_u)) <= 1e-9

    def test_closed_form_matches_root_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_params(rng)
            phi = spread(p).phi
            xs = phi * np.geomspace(1.1, 5.0, 6)
            book = shape_continuous(p, xs)
            for x, l_closed in zip(xs, book.informed):
                l_root = root_solve_depth(p, x)
                assert l_root == pytest.approx(l_closed, rel=1e-7)


class TestGains:
    def test_f_zero_gain_is_distance(self):
        p = reference_params(f=0.0)
        assert gain_imm(p, 0.02, 5.0) == 0.02
        assert gain_imm(p, 0.31, 0.0) == 0.31

    def test_f_one_imm_equals_nmm(self):
        p = reference_params(f=1.0)
        for x, depth in [(0.01, 3.0), (0.05, 12.0)]:
            assert gain_imm(p, x, depth) == gain_nmm(p, x, depth)

    def test_large_distance_gain_near_x(self):
        p = reference_params()
        x = 5.0   # far beyond any plausible jump
        assert gain_imm(p, x, 0.0) == pytest.approx(x, rel=1e-6)
        assert gain_nmm(p, x, 0.0) == pytest.approx(x, rel=1e-6)

    def test_unfillable_level(self):
        p = reference_params(f=0.0)
        with pytest.raises(UnfillableLevelError):
            gain_imm(p, 0.02, math.inf)
        pm = reference_params(jump=PointMass(0.02))
        with pytest.raises(UnfillableLevelError):
            gain_imm(pm, 0.05, math.inf)

    def test_positive_distance_required(self):
        with pytest.raises(ValueError):
            gain_imm(reference_params(), 0.0, 1.0)
        with pytest.raises(ValueError, match="^gain requires a positive distance x$"):
            gain_imm(reference_params(), math.nan, 1.0)
        for depth in (math.nan, -5.0):
            with pytest.raises(ValueError, match=f"^gain requires a nonnegative depth ahead, "
                                                 f"got {depth}$"):
                gain_imm(reference_params(), 0.02, depth)


class TestToxicity:
    def test_theta_bar_values(self):
        assert theta_bar(reference_params(theta=0.0, rho=0.5)) == 0.0
        assert theta_bar(reference_params(theta=0.01, rho=0.0)) == 0.01
        assert theta_bar(reference_params(theta=0.01, rho=0.5)) == pytest.approx(0.0075)

    def test_theta_bar_against_chain_simulation(self):
        theta, rho = 0.01, 0.5
        gamma = 0.5 * (1.0 + rho)
        rng = np.random.default_rng(5)
        steps = np.where(rng.random(10**6) < gamma, 1, -1).astype(np.int8)
        x = np.multiply.accumulate(steps)
        prev = np.concatenate(([np.int8(1)], x[:-1]))
        drift = theta * (x - rho * prev.astype(float))
        sample = drift[x == 1]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        estimate = sample.mean()
        expected = theta_bar(reference_params(theta=theta, rho=rho))
        assert abs(estimate - expected) <= 3 * se

    def test_zero_theta_reduces_exactly(self):
        grid = np.linspace(0.005, 0.2, 30)
        base = shape_continuous(reference_params(), grid)
        toxic = shape_continuous(reference_params(theta=0.0, rho=0.5), grid)
        assert np.array_equal(base.informed, toxic.informed)
        s0 = spread(reference_params())
        st = spread(reference_params(theta=0.0, rho=0.5))
        assert st.phi_theta == s0.phi

    def test_depth_zero_at_or_below_drift(self):
        p = reference_params(theta=0.005, rho=0.0)
        tb = theta_bar(p)
        book = shape_continuous(p, [tb * 0.5, tb, tb * 1.0001])
        assert book.informed[0] == 0.0
        assert book.informed[1] == 0.0
        assert book.informed[2] == 0.0   # argument diverges to -inf just above

    def test_toxic_shape_against_gain_root(self):
        # second implementation path: solve the toxic gain for depth
        p = reference_params(theta=0.005, rho=0.0)
        sol = spread(p)
        xs = sol.phi_theta * np.array([1.2, 1.8, 3.0])
        book = shape_continuous(p, xs)
        for x, l_closed in zip(xs, book.informed):
            l_root = root_solve_depth(p, x)
            assert l_root == pytest.approx(l_closed, rel=1e-7)

    def test_toxic_spread_ordering(self):
        p = reference_params(theta=0.005, rho=0.0)
        sol = spread(p)
        tb = theta_bar(p)
        assert sol.phi_theta > tb
        assert sol.phi_theta > sol.phi
        assert sol.phi_theta > 0.0100415

    def test_toxic_spread_large_drift_still_brackets(self):
        p = reference_params(theta=0.05, rho=0.0)   # drift far above phi
        sol = spread(p)
        assert sol.phi_theta > 0.05
        rhs = 1.0 + (1.0 - p.r) / (2.0 * p.r * p.f) * (sol.phi_theta - 0.05) / sol.phi_theta
        assert p.jump.emax_ratio(sol.phi_theta) == pytest.approx(rhs, rel=1e-10)


class TestMultiSource:
    def single(self, r=0.3, f=0.6):
        return MultiSourceParams(
            sources=(JumpSource(r, f, Pareto(3.0, 0.005)),),
            volume=NormalVolume(10.0),
        )

    def test_n1_matches_single_source(self):
        mp = self.single()
        p = ModelParams(r=0.3, f=0.6, jump=Pareto(3.0, 0.005), volume=NormalVolume(10.0))
        grid = np.linspace(0.008, 0.1, 20)
        multi = shape_multi(mp, grid)
        single = shape_continuous(p, grid)
        assert np.allclose(multi.informed, single.informed, rtol=1e-12)
        for x in (0.02, 0.05):
            assert gain_imm_multi(mp, 0, x, 4.0) == pytest.approx(
                gain_imm(p, x, 4.0), rel=1e-12)

    def test_dead_source_drops_out(self):
        mp = MultiSourceParams(
            sources=(JumpSource(0.3, 0.6, Pareto(3.0, 0.005)),
                     JumpSource(0.0, 0.6, Exponential(50.0))),
            volume=NormalVolume(10.0),
        )
        p = ModelParams(r=0.3, f=0.6, jump=Pareto(3.0, 0.005), volume=NormalVolume(10.0))
        grid = np.linspace(0.008, 0.1, 20)
        assert np.allclose(shape_multi(mp, grid).informed,
                           shape_continuous(p, grid).informed, rtol=1e-12)
        assert gain_imm_multi(mp, 0, 0.02, 4.0) == pytest.approx(
            gain_imm(p, 0.02, 4.0), rel=1e-12)

    def test_symmetric_sources_equal_books(self):
        src = JumpSource(0.2, 0.5, Pareto(3.0, 0.005))
        mp = MultiSourceParams(sources=(src, src, src), volume=NormalVolume(10.0))
        grid = np.linspace(0.01, 0.1, 15)
        book = shape_multi(mp, grid)
        for other in book.source_books[1:]:
            assert np.array_equal(book.source_books[0], other)
        assert np.array_equal(book.informed, book.source_books[0])
        for x in (0.02, 0.06):
            assert gain_imm_multi(mp, 0, x, 3.0) == gain_imm_multi(mp, 1, x, 3.0)

    def test_f_zero_competition_keeps_book_finite(self):
        mp = MultiSourceParams(
            sources=(JumpSource(0.2, 0.0, Pareto(3.0, 0.005)),
                     JumpSource(0.2, 0.0, Pareto(3.0, 0.005))),
            volume=NormalVolume(10.0),
        )
        grid = np.linspace(0.01, 0.2, 25)
        book = shape_multi(mp, grid)
        assert np.all(np.isfinite(book.informed))
        # break-even argument h_k = 1 - (r/(1-2r)) (emax - 1) stays below 1
        emax = Pareto(3.0, 0.005).emax_ratio(grid)
        h = 1.0 - (0.2 / 0.6) * (emax - 1.0)
        assert np.all(h < 1.0)
        mask = h > 0.51
        expected = NormalVolume(10.0).quantile(h[mask])
        assert np.allclose(book.informed[mask], expected, rtol=1e-10)

    def test_break_even_closure_per_source(self):
        mp = MultiSourceParams(
            sources=(JumpSource(0.25, 0.7, Pareto(3.0, 0.005)),
                     JumpSource(0.15, 0.7, Exponential(60.0))),
            volume=NormalVolume(10.0),
        )
        grid = np.linspace(0.012, 0.08, 10)
        book = shape_multi(mp, grid)
        for k in range(2):
            for x, depth in zip(grid, book.source_books[k]):
                if np.isfinite(depth) and depth > 0.0:
                    assert abs(gain_imm_multi(mp, k, x, depth)) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="common race parameter"):
            MultiSourceParams(
                sources=(JumpSource(0.2, 0.5, Pareto(3.0, 0.005)),
                         JumpSource(0.2, 0.6, Pareto(3.0, 0.005))),
                volume=NormalVolume(10.0),
            )
        with pytest.raises(ValueError, match="sum to less than 1"):
            MultiSourceParams(
                sources=(JumpSource(0.6, 0.5, Pareto(3.0, 0.005)),
                         JumpSource(0.5, 0.5, Pareto(3.0, 0.005))),
                volume=NormalVolume(10.0),
            )
        with pytest.raises(ValueError, match="source index"):
            gain_imm_multi(self.single(), 3, 0.02, 1.0)
        with pytest.raises(ValueError, match="^at least one jump source is required$"):
            MultiSourceParams(sources=(), volume=NormalVolume(10.0))


class TestModelParams:
    def test_rate_consistency(self):
        p = ModelParams(r=0.9, f=0.9, jump=Pareto(3.0, 0.005),
                        volume=NormalVolume(10.0), lambda_i=9.0, lambda_u=1.0)
        assert p.r == 0.9
        with pytest.raises(ValueError, match="inconsistent"):
            ModelParams(r=0.5, f=0.9, jump=Pareto(3.0, 0.005),
                        volume=NormalVolume(10.0), lambda_i=9.0, lambda_u=1.0)

    def test_r_derived_from_rates(self):
        p = ModelParams(f=0.9, jump=Pareto(3.0, 0.005), volume=NormalVolume(10.0),
                        lambda_i=3.0, lambda_u=1.0)
        assert p.r == 0.75
        assert p.rates == (3.0, 1.0)

    def test_gamma(self):
        assert reference_params(rho=0.5).gamma == 0.75

    def test_validation_errors(self):
        for kwargs in (dict(r=1.0), dict(r=-0.1), dict(f=1.5), dict(theta=-1.0),
                       dict(rho=1.0), dict(tick=-0.01),
                       dict(tick=0.01, offset_d=0.01), dict(offset_d=0.002)):
            with pytest.raises(ValueError):
                reference_params(**kwargs)
        with pytest.raises(ValueError, match="^ModelParams requires a jump law and a volume law$"):
            ModelParams(r=0.5, f=0.5, volume=NormalVolume(10.0))


class TestMonotonicity:
    def test_depth_monotone_in_parameters(self):
        rs = np.linspace(0.1, 0.9, 10)
        fs = np.linspace(0.1, 1.0, 10)
        probes = np.array([0.015, 0.03, 0.08])
        jump, volume = Pareto(3.0, 0.005), NormalVolume(10.0)
        depth = np.empty((len(rs), len(fs), len(probes)))
        for i, r in enumerate(rs):
            for j, f in enumerate(fs):
                book = shape_continuous(ModelParams(r=r, f=f, jump=jump, volume=volume), probes)
                depth[i, j] = book.informed
                assert np.all(np.diff(book.informed) >= -1e-12)
        assert np.all(np.diff(depth, axis=0) <= 1e-9)   # nonincreasing in r
        assert np.all(np.diff(depth, axis=1) <= 1e-9)   # nonincreasing in f

    def test_spread_monotone_in_parameters(self):
        rs = np.linspace(0.1, 0.9, 10)
        fs = np.linspace(0.1, 1.0, 10)
        jump, volume = Pareto(3.0, 0.005), NormalVolume(10.0)
        phi = np.empty((len(rs), len(fs)))
        for i, r in enumerate(rs):
            for j, f in enumerate(fs):
                sol = spread(ModelParams(r=r, f=f, jump=jump, volume=volume))
                phi[i, j] = sol.phi
                assert sol.phi <= sol.mu + 1e-15
        assert np.all(np.diff(phi, axis=0) >= -1e-12)
        assert np.all(np.diff(phi, axis=1) >= -1e-12)


jump_laws = st.one_of(
    st.builds(Pareto, st.floats(1.5, 5.0), st.floats(1e-3, 0.05)),
    st.builds(Exponential, st.floats(20.0, 500.0)),
    st.builds(PointMass, st.floats(1e-3, 0.05)),
)
# f stays either exactly 1 or at most 0.99: closer to 1 the roots of the
# two spread equations may round to the same float
spread_cells = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
    st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
)


class TestBatchedSpreads:
    @settings(max_examples=60)
    @given(jump_laws, st.lists(spread_cells, min_size=1, max_size=8),
           st.floats(-0.9, 0.9), st.sampled_from([(0.0, 0.0), (0.01, 0.0), (0.01, 0.004)]))
    def test_cells_equal_scalar_solves(self, jump, cells, rho, tick_d):
        tick, d = tick_d
        volume = NormalVolume(10.0)
        solved, zero = [], []
        for r, f, theta in cells:
            p = ModelParams(r=r, f=f, theta=theta, jump=jump, volume=volume,
                            rho=rho, tick=tick, offset_d=d)
            try:
                solved.append((p, spread(p)))
            except ZeroSpreadRegime:
                zero.append(p)
            except SolverError:
                # no toxic root: the drift reaches the point mass, where emax is 1
                assert isinstance(jump, PointMass) and theta_bar(p) >= jump.value
        params = [p for p, _ in solved] + zero
        grid = ParamGrid(r=[p.r for p in params], f=[p.f for p in params],
                         theta=[p.theta for p in params], jump=jump, volume=volume,
                         rho=rho, tick=tick, offset_d=d)
        got = solve_spreads(grid)
        n = len(solved)
        assert got.zero.tolist() == [False] * n + [True] * len(zero)
        assert np.all(got.phi[n:] == 0.0)
        # closed form exactly below the support, bisection above it
        r, f = grid.r[:n], grid.f[:n]
        rhs = 1.0 + (1.0 / (2.0 * f)) * (1.0 / r - 1.0)
        below = got.phi[:n] <= jump.support_inf
        assert np.array_equal(got.phi[:n][below], jump.mean / rhs[below])
        probes = np.array([0.002, 0.01, 0.05])
        depth, _ = book_curves(grid, probes)
        for i, (p, sol) in enumerate(solved):
            assert got.phi[i] == sol.phi and got.mu[i] == sol.mu
            assert got.residual[i] == sol.residual
            assert np.array_equal(depth[i], book_curves(p, probes)[0])
            # phi <= mu with equality iff f = 1
            assert sol.phi < sol.mu if p.f < 1.0 else sol.phi == sol.mu
            if p.theta > 0.0:
                assert got.phi_theta[i] == sol.phi_theta
                assert sol.phi_theta >= sol.phi
                assert sol.phi_theta > theta_bar(p)
            elif tick > 0.0:
                assert got.k_d[i] == sol.k_d and got.spread_tick[i] == sol.spread_tick

    @settings(max_examples=200)
    @given(jump_laws, spread_cells, st.floats(-0.9, 0.9))
    # the toxic root lies about 1e-12 (relative) above theta_bar
    @example(Exponential(387.0), (0.0625, 0.01, 0.046875), 0.0)
    def test_each_root_is_a_sign_change_in_x(self, jump, cell, rho):
        # the solver judges a root in x: each equation changes sign within
        # 2e-12 (relative) of its reported root, whatever its residual, and
        # a bisected root's equation, as the solver spells it, changes sign
        # between the root and the next float
        r, f, theta = cell
        p = ModelParams(r=r, f=f, theta=theta, jump=jump, volume=NormalVolume(10.0), rho=rho)
        try:
            sol = spread(p)
        except ZeroSpreadRegime:
            return
        except SolverError as exc:
            # only a toxic root may be missing, exactly where emax just
            # above theta_bar is not above 1
            assert str(exc).startswith("spread equation has no root above theta_bar")
            assert jump.emax_ratio(math.nextafter(theta_bar(p), math.inf)) <= 1.0
            return
        below, above = 1.0 - 2e-12, 1.0 + 2e-12
        for x, race in ((sol.phi, f), (sol.mu, 1.0)):
            rhs = 1.0 + (1.0 / (2.0 * race)) * (1.0 / r - 1.0)
            assert jump.emax_ratio(x * below) >= rhs >= jump.emax_ratio(x * above)
        tb = theta_bar(p)
        if tb > 0.0:
            c = (1.0 - r) / (2.0 * r * f)

            def g(x):
                return jump.emax_ratio(x) - 1.0 - c * (x - tb) / x

            assert g(sol.phi_theta * below) >= 0.0 >= g(sol.phi_theta * above)
            assert sol.phi_theta > tb
        # above the support infimum a root is bisected (below it, it is in
        # closed form); the lower bracket is its own root only where rounding
        # puts it at the support kink, which continuous draws do not reach
        for x, race, drift in ((sol.phi, f, 0.0), (sol.mu, 1.0, 0.0), (sol.phi_theta, f, tb)):
            if x > jump.support_inf:
                c = (1.0 / (2.0 * race)) * (1.0 / r - 1.0)
                xs = np.array([x, math.nextafter(x, math.inf)])
                g_solver = jump.emax_ratio(xs) - (1.0 + c * (1.0 - drift / xs))
                assert g_solver[0] >= 0.0 > g_solver[1]

    def test_toxic_root_below_the_support_in_closed_form(self):
        # emax(x) = E[B]/x below the Pareto scale, so the toxic equation is
        # linear in 1/x there: c = 1, theta_bar = 0.001 put the root at 0.00425
        p = ModelParams(r=0.5, f=0.5, theta=0.001, jump=Pareto(3.0, 0.005),
                        volume=NormalVolume(10.0))
        sol = spread(p)
        c, tb = 1.0, theta_bar(p)
        assert sol.phi_theta == pytest.approx((p.jump.mean + c * tb) / (1.0 + c), rel=1e-15)
        assert sol.phi_theta < p.jump.support_inf
        assert sol.solver_iters == 0
        assert p.jump.emax_ratio(sol.phi_theta) == pytest.approx(
            1.0 + c * (sol.phi_theta - tb) / sol.phi_theta, rel=1e-15)

    def test_root_rounded_onto_the_support_kink(self):
        # r = 1/3 and f = 1/2 put the root at the Pareto scale; rounding leaves
        # emax of the lower bracket a hair below the target, so it is the root
        p = ModelParams(r=1 / 3, f=0.5, jump=Pareto(1.5, 0.047222704435068666),
                        volume=NormalVolume(10.0))
        sol = spread(p)
        assert sol.phi == pytest.approx(p.jump.support_inf, rel=1e-15) and sol.residual < 1e-15
        grid = ParamGrid(r=[p.r], f=[p.f], theta=[0.0], jump=p.jump, volume=p.volume)
        assert solve_spreads(grid).phi[0] == sol.phi

    def test_grid_rejects_what_model_params_rejects(self):
        jump, volume = Pareto(3.0, 0.005), NormalVolume(10.0)
        for bad, match in [(dict(r=[0.5, 1.0]), "r = 1.0"), (dict(f=[0.5, 1.5]), "f = 1.5"),
                           (dict(theta=[0.0, np.nan]), "theta = nan"),
                           (dict(rho=1.0), "rho = 1.0"),
                           (dict(tick=0.01, offset_d=0.02), "offset_d = 0.02")]:
            kwargs = dict(r=0.5, f=0.5, theta=0.0, jump=jump, volume=volume)
            kwargs.update(bad)
            with pytest.raises(ValueError, match=match):
                ParamGrid(**kwargs)
        with pytest.raises(ValueError, match="^r, f and theta must broadcast to one 1-d array$"):
            ParamGrid(r=[[0.5, 0.6]], f=0.5, theta=0.0, jump=jump, volume=volume)


class TestEdgeDistances:
    @pytest.mark.parametrize("jump", [Pareto(3.0, 0.005), Exponential(80.0), PointMass(0.02)])
    @pytest.mark.parametrize("theta", [0.0, 0.004])
    def test_infinite_distance_is_unbounded(self, jump, theta):
        p = reference_params(jump=jump, theta=theta, rho=0.3)
        grid = ParamGrid(r=[0.3, 0.9, 0.0], f=[0.5, 1.0, 0.5], theta=theta, jump=jump,
                         volume=p.volume, rho=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            informed, noise = book_curves(p, [0.03, np.inf])
            grid_informed, grid_noise = book_curves(grid, [0.03, np.inf])
            book = shape_continuous(p, [0.03, np.inf])
        assert informed[1] == noise[1] == UNBOUNDED
        assert np.all(grid_informed[:, 1] == UNBOUNDED) and np.all(grid_noise[:, 1] == UNBOUNDED)
        assert book.informed[1] == UNBOUNDED
        # the finite distance is untouched by the infinite one
        assert informed[0] == book_curves(p, [0.03])[0][0]

    @pytest.mark.parametrize("theta", [2.0**53, 1e300, 1.7e308, sys.float_info.max])
    def test_huge_drift_raises_no_warning(self, theta):
        # distances up to theta_bar carry no depth and an infinite one is
        # unbounded, with no warning from the formula at the other distances
        p = reference_params(theta=theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            informed, noise = book_curves(p, [0.01, theta / 2.0, theta, np.inf])
        assert informed.tolist() == noise.tolist() == [0.0, 0.0, 0.0, UNBOUNDED]

    def test_nan_distance_names_its_index(self):
        with pytest.raises(ValueError, match="distance nan at index 2"):
            book_curves(reference_params(), [0.01, 0.02, np.nan])
        with pytest.raises(ValueError, match="distance nan at index 1"):
            shape_continuous(reference_params(), [0.01, np.nan])
        with pytest.raises(ValueError, match="distance nan at index 0"):
            shape_multi(MultiSourceParams(sources=(JumpSource(0.3, 0.6, Pareto(3.0, 0.005)),),
                                          volume=NormalVolume(10.0)), [np.nan, 0.02])
        with pytest.raises(ValueError, match=r"distance -0.5 at index 1, 0"):
            book_curves(reference_params(), [[0.01, 0.02], [-0.5, 0.1]])

    def test_toxic_shape_is_the_continuous_shape(self):
        p = reference_params(theta=0.004, rho=0.2)
        grid = np.linspace(0.005, 0.1, 12)
        assert np.array_equal(shape_continuous(p, grid).informed, book_curves(p, grid)[0])


volume_laws = st.one_of(st.builds(NormalVolume, st.floats(1.0, 20.0)),
                        st.builds(LaplaceVolume, st.floats(1.0, 15.0)))
fractions = st.one_of(st.just(0.0), st.floats(0.01, 0.95))
races = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# increasing distances whose steps stay clear of float-rounding ties
distances = st.lists(st.floats(1e-3, 0.05), min_size=1, max_size=12).map(
    lambda steps: np.cumsum(steps))


def nondecreasing(curve):
    """Each depth at least the one before it, to a relative 1e-6: deep in
    the volume tail a one-ulp wobble of the break-even argument moves the
    quantile by far more than one ulp."""
    return bool(np.all(curve[1:] >= curve[:-1] * (1.0 - 1e-6)))


class TestBreakEvenCore:
    """Properties of the one break-even formula behind every book."""

    @given(jump_laws, volume_laws, fractions, races, st.floats(0.0, 0.02),
           st.floats(-0.9, 0.9), distances)
    def test_curves_nonnegative_and_nondecreasing(self, jump, volume, r, f, theta, rho, x):
        p = ModelParams(r=r, f=f, jump=jump, volume=volume, theta=theta, rho=rho)
        informed, noise = book_curves(p, np.concatenate(([0.0], x)))
        for curve in (informed, noise):
            assert np.all(curve >= 0.0)
            assert nondecreasing(curve)
        assert np.all(informed >= noise)

    @given(jump_laws, volume_laws, st.floats(0.01, 0.95), races,
           st.lists(jump_laws, max_size=3), st.integers(0, 3), distances)
    def test_one_live_source_is_the_single_source_book(self, jump, volume, r, f, dead,
                                                      position, x):
        sources = [JumpSource(0.0, f, law) for law in dead]
        sources.insert(min(position, len(sources)), JumpSource(r, f, jump))
        book = shape_multi(MultiSourceParams(sources=sources, volume=volume), x)
        informed, noise = book_curves(ModelParams(r=r, f=f, jump=jump, volume=volume), x)
        assert np.array_equal(book.informed, informed)
        assert np.array_equal(book.noise, noise)

    @given(jump_laws, volume_laws, fractions, races, st.sampled_from([0.0, 0.004]),
           st.floats(-0.9, 0.9), st.floats(1e-4, 0.2), st.floats(0.0, 60.0))
    def test_gain_imm_is_the_one_channel_gain(self, jump, volume, r, f, theta, rho, x, depth):
        # the inline single channel keeps the general form's operation order
        p = ModelParams(r=r, f=f, jump=jump, volume=volume, theta=theta, rho=rho)
        try:
            want = gain_oracle.gain_imm(p, x, depth)
        except UnfillableLevelError as exc:
            with pytest.raises(UnfillableLevelError, match=f"^{re.escape(str(exc))}$"):
                gain_imm(p, x, depth)
        else:
            assert float(gain_imm(p, x, depth)).hex() == float(want).hex()

    @given(st.lists(st.tuples(st.floats(0.0, 0.3), jump_laws), min_size=1, max_size=3),
           races, volume_laws, distances)
    def test_source_books_are_gain_roots(self, specs, f, volume, x):
        sources = [JumpSource(r, f, jump) for r, jump in specs]
        mp = MultiSourceParams(sources=sources, volume=volume)
        book = shape_multi(mp, x)
        assert np.array_equal(book.informed, np.maximum.reduce(book.source_books))
        for k, depths in enumerate(book.source_books):
            for xk, depth in zip(x, depths):
                # interior depths only, where the volume CDF is invertible
                # to well below 1e-9 (1 - F(L) is not lost to cancellation)
                if 0.0 < depth < math.inf and volume.p_gt(depth) > 1e-6:
                    assert abs(gain_imm_multi(mp, k, xk, depth)) <= 1e-9
