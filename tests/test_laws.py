"""Distribution laws against independent quadrature/bisection oracles."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from lobeq.laws import (
    Exponential,
    JumpLaw,
    LaplaceVolume,
    NormalVolume,
    Pareto,
    PointMass,
)

# independent densities for the quadrature oracle
PDFS = {
    Pareto: lambda law, b: law.shape * law.scale**law.shape * b ** (-law.shape - 1.0),
    Exponential: lambda law, b: law.rate * math.exp(-law.rate * b),
}


def tail_by_quadrature(law, x):
    pdf = PDFS[type(law)]
    lo = max(x, law.support_inf)
    value, err = quad(lambda b: b * pdf(law, b), lo, np.inf,
                      epsabs=1e-15, epsrel=1e-12)
    assert err <= 1e-10 * max(1.0, abs(value))
    return value


def quantile_by_bisection(law, p, lo, hi, tol=1e-13):
    while hi - lo > tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if law.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


JUMP_LAWS = [Pareto(3.0, 0.005), Pareto(2.2, 0.02), Exponential(50.0)]


class TestJumpLaws:
    def test_pareto_cdf_examples(self):
        law = Pareto(3.0, 0.005)
        assert law.cdf(0.005) == 0.0
        assert law.cdf(0.004) == 0.0
        assert law.cdf(0.01) == pytest.approx(0.875, abs=1e-15)

    @pytest.mark.parametrize("law", JUMP_LAWS, ids=str)
    def test_tail_expectation_matches_quadrature(self, law):
        for x in np.geomspace(law.mean / 20, law.mean * 20, 12):
            expected = tail_by_quadrature(law, x)
            assert law.tail_expectation(x) == pytest.approx(expected, rel=1e-9)
        assert law.tail_expectation(0.0) == pytest.approx(law.mean, rel=1e-12)

    def test_tail_expectation_frozen_values(self):
        law = Pareto(3.0, 0.005)
        assert law.tail_expectation(0.0) == pytest.approx(0.0075, rel=1e-12)
        assert law.tail_expectation(0.01) == pytest.approx(1.875e-3, rel=1e-12)
        assert PointMass(1.0).tail_expectation(2.0) == 0.0
        assert PointMass(1.0).tail_expectation(0.5) == 1.0

    def test_emax_ratio_frozen_values(self):
        law = Pareto(3.0, 0.005)
        assert law.emax_ratio(0.01) == pytest.approx(1.0625, rel=1e-12)
        # far beyond the support the ratio collapses to 1
        assert law.emax_ratio(10.0) == pytest.approx(1.0, abs=1e-9)
        # below the support infimum it is E[B]/x exactly
        assert law.emax_ratio(0.001) == pytest.approx(law.mean / 0.001, rel=1e-12)

    @pytest.mark.parametrize("law", JUMP_LAWS + [PointMass(0.02)], ids=str)
    def test_emax_identity(self, law):
        scale = law.mean
        for x in np.geomspace(scale / 10, scale * 100, 60):
            lhs = law.emax_ratio(x)
            rhs = law.tail_expectation(x) / x + law.cdf(x)
            assert abs(lhs - rhs) <= 1e-12

    def test_emax_identity_at_atom(self):
        # right-continuous cdf makes the identity exact on the atom itself
        law = PointMass(0.02)
        assert law.emax_ratio(0.02) == 1.0
        assert law.emax_ratio(0.01) == 2.0

    @pytest.mark.parametrize("law", JUMP_LAWS, ids=str)
    def test_monotonicity(self, law):
        grid = np.geomspace(law.mean / 50, law.mean * 50, 1000)
        tails = law.tail_expectation(grid)
        emax = law.emax_ratio(grid)
        assert np.all(np.diff(tails) <= 1e-15)
        assert np.all(np.diff(emax) <= 1e-12)
        assert np.all(emax >= 1.0 - 1e-15)

    @pytest.mark.parametrize("law", JUMP_LAWS + [PointMass(0.02)], ids=str)
    def test_limits_at_infinity(self, law):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law.tail_expectation(math.inf) == 0.0
            assert law.emax_ratio(math.inf) == 1.0
            ratio = law.emax_ratio(np.array([law.mean / 2, math.inf]))
        assert ratio[0] > 1.0 and ratio[1] == 1.0

    def test_domain_errors(self):
        law = Pareto(3.0, 0.005)
        with pytest.raises(ValueError):
            law.emax_ratio(0.0)
        with pytest.raises(ValueError):
            law.emax_ratio(-1.0)
        for x in (math.nan, [0.01, math.nan]):     # nan fails like x = 0 does
            with pytest.raises(ValueError, match=r"^emax_ratio requires x > 0$"):
                law.emax_ratio(x)
        with pytest.raises(ValueError):
            Pareto(1.0, 0.005)
        with pytest.raises(ValueError):
            Pareto(3.0, 0.0)
        with pytest.raises(ValueError, match=r"^Pareto scale 1e\+300 to the power shape 3.0 "):
            Pareto(3.0, 1e300)                      # the tail expectation needs scale**shape
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            PointMass(-0.5)

    @pytest.mark.parametrize("shape, scale, fault", [
        (1e300, 0.005, "underflows"),          # scale**shape is 0: the tail would be 0 * inf
        (3.0, 1e-103, "underflows"),           # subnormal scale**shape
        (1e300, 1.5, "overflows"),             # shape * scale**shape
        (1.0 + 1e-10, 1e300, "overflows"),     # the mean
    ])
    def test_pareto_factors_must_be_normal_floats(self, shape, scale, fault):
        with pytest.raises(ValueError, match=f"^Pareto scale {re.escape(str(scale))} to the "
                                             f"power shape {re.escape(str(shape))} {fault} "
                                             "a float$"):
            Pareto(shape, scale)

    @given(st.floats(-15.0, 300.0), st.floats(-300.0, 300.0),
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    def test_accepted_pareto_has_a_finite_tail(self, log_excess, log_scale, log_ratios):
        # shape - 1 and the scale over many orders of magnitude, distances
        # around the scale: no warning, a finite tail and an emax of at least 1
        try:
            law = Pareto(1.0 + 10.0**log_excess, 10.0**log_scale)
        except ValueError:
            return
        x = law.scale * 10.0 ** np.array(log_ratios)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = law.tail_expectation(x)
            ratio = law.emax_ratio(x)
        assert np.all(np.isfinite(tail)) and np.all(tail >= 0.0)
        assert np.all(ratio >= 1.0)


class TestVolumeLaws:
    def test_median_zero(self):
        assert NormalVolume(10.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert LaplaceVolume(3.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert NormalVolume(10.0).quantile(0.5) == 0.0
        assert LaplaceVolume(3.0).quantile(0.5) == 0.0

    def test_quantile_frozen_values(self):
        # oracle: bisection on the CDF, independent of the closed form
        law = NormalVolume(10.0)
        oracle = quantile_by_bisection(law, 0.9, 0.0, 100.0)
        assert oracle == pytest.approx(12.8155, abs=5e-4)
        assert law.quantile(0.9) == pytest.approx(oracle, rel=1e-9)

        lap = LaplaceVolume(1.0)
        assert lap.quantile(0.75) == pytest.approx(math.log(2.0), rel=1e-12)
        assert lap.quantile(0.75) == pytest.approx(
            quantile_by_bisection(lap, 0.75, 0.0, 50.0), rel=1e-9
        )

    @pytest.mark.parametrize("law,span", [(NormalVolume(10.0), 50.0),
                                          (LaplaceVolume(2.5), 30.0)], ids=str)
    def test_quantile_cdf_roundtrip(self, law, span):
        xs = np.linspace(-span, span, 41)
        back = law.quantile(law.cdf(xs))
        assert np.allclose(back, xs, rtol=1e-9, atol=1e-9)
        ps = np.linspace(1e-6, 1 - 1e-6, 101)
        assert np.allclose(law.cdf(law.quantile(ps)), ps, rtol=1e-12, atol=1e-12)

    def test_quantile_domain(self):
        law = NormalVolume(10.0)
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                law.quantile(p)
        with pytest.raises(ValueError):
            NormalVolume(0.0)
        with pytest.raises(ValueError):
            LaplaceVolume(-1.0)

    @pytest.mark.parametrize("law", [NormalVolume(2.0), LaplaceVolume(2.0)])
    @pytest.mark.parametrize("p", [math.nan, [math.nan, 0.3], [0.3, math.nan]])
    def test_quantile_rejects_nan(self, law, p):
        # nan <= 0 and nan >= 1 are both false: nan must fail like p = 0 does
        with pytest.raises(ValueError, match=r"^quantile requires 0 < p < 1$"):
            law.quantile(p)


class TestNormalAgainstScipy:
    """The AS 241 quantile and the erfc-based CDF of ``NormalVolume``
    against ``scipy.special.ndtri``/``ndtr``, which they replaced."""

    LAWS = [NormalVolume(1.0), NormalVolume(10.0), NormalVolume(0.37)]

    @staticmethod
    def probabilities():
        rng = np.random.default_rng(2024)
        uniform = rng.random(100_000)
        lower = 10.0 ** rng.uniform(-300.0, -1.0, 50_000)
        upper = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0, 50_000)
        p = np.concatenate([uniform, lower, upper])
        return p[(p > 0.0) & (p < 1.0)]

    @staticmethod
    def assert_quantile_close(law, p):
        expected = ndtri(p)
        got = law.quantile(p) / law.sigma
        assert np.all(np.abs(got - expected) <= 4e-15 * np.abs(expected))

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_quantile_matches_ndtri(self, law):
        self.assert_quantile_close(law, self.probabilities())

    @given(p=st.floats(1e-300, 1.0 - 1e-15), sigma=st.sampled_from([1.0, 10.0, 0.37]))
    def test_quantile_matches_ndtri_property(self, p, sigma):
        self.assert_quantile_close(NormalVolume(sigma), np.array([p]))

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_quantile_of_one_half_is_zero(self, law):
        assert law.quantile(0.5) == 0.0
        assert law.quantile(np.array([0.5, 0.5])).tolist() == [0.0, 0.0]

    def test_quantile_strictly_increasing(self):
        # every branch, and points straddling the branch ends
        # |p - 1/2| = 0.425 and sqrt(-log p) = 5
        edges = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]
        grid = np.unique(np.concatenate(
            [np.logspace(-300, -1, 3000), np.linspace(1e-6, 1.0 - 1e-6, 100_001),
             1.0 - np.logspace(-15, -1, 1000)]
            + [e + 1e-9 * min(e, 1.0 - e) * np.arange(-50, 51) for e in edges]))
        assert np.all(np.diff(NormalVolume(10.0).quantile(grid)) > 0.0)

    @staticmethod
    def assert_cdf_close(law, z):
        expected = ndtr(z)
        got = law.cdf(z * law.sigma)
        assert np.all(np.abs(got - expected) <= 1e-15)
        normal = expected >= np.finfo(float).tiny
        assert np.all(np.abs(got - expected)[normal] <= 1e-12 * expected[normal])

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_cdf_matches_ndtr(self, law):
        self.assert_cdf_close(law, np.linspace(-37.0, 10.0, 200_001))

    @given(z=st.floats(-37.0, 10.0), sigma=st.sampled_from([1.0, 10.0, 0.37]))
    def test_cdf_matches_ndtr_property(self, z, sigma):
        self.assert_cdf_close(NormalVolume(sigma), np.array([z]))


class TestArrayContract:
    """Every law method takes arrays; a scalar is a 0-d array."""

    LAWS = st.one_of(st.builds(Pareto, st.floats(1.5, 5.0), st.floats(1e-3, 0.05)),
                     st.builds(Exponential, st.floats(20.0, 500.0)),
                     st.builds(PointMass, st.floats(1e-3, 0.05)),
                     st.builds(NormalVolume, st.floats(1.0, 20.0)),
                     st.builds(LaplaceVolume, st.floats(1.0, 15.0)))
    ANYWHERE = st.floats(-1e3, 1e3) | st.sampled_from([0.0, math.inf, -math.inf])
    DOMAINS = {"cdf": ANYWHERE, "p_gt": ANYWHERE, "tail_expectation": ANYWHERE,
               "emax_ratio": st.floats(1e-6, 1e3) | st.just(math.inf),
               "quantile": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)}

    @given(LAWS, st.data())
    def test_scalar_in_zero_d_out(self, law, data):
        methods = ["cdf", "p_gt"] + (["tail_expectation", "emax_ratio"]
                                     if isinstance(law, JumpLaw) else ["quantile"])
        method = getattr(law, data.draw(st.sampled_from(methods)))
        x = data.draw(self.DOMAINS[method.__name__])
        want = method(np.array([x]))[0]
        for scalar in (x, np.float64(x), np.array(x)):
            got = method(scalar)
            assert isinstance(got, (np.ndarray, np.floating)) and got.ndim == 0
            assert got.dtype == np.float64
            if isinstance(law, Pareto):
                # a numpy scalar's ** is the C library's pow, an array's may be
                # a vectorized pow one ulp away; 1 - (scale/x)**shape magnifies it
                assert got == pytest.approx(want, rel=1e-14, abs=1e-15)
            else:
                assert np.asarray(got).tobytes() == want.tobytes()


class TestSampling:
    def test_pointmass_degenerate(self):
        rng = np.random.default_rng(0)
        law = PointMass(0.02)
        assert np.array_equal(law.sample(rng, 1), [0.02])
        assert np.all(law.sample(rng, 100) == 0.02)

    def test_deterministic_for_seed(self):
        law = Pareto(3.0, 0.005)
        a = law.sample(np.random.default_rng(123), 1000)
        b = law.sample(np.random.default_rng(123), 1000)
        assert np.array_equal(a, b)

    def test_pareto_mean_within_3_se(self):
        law = Pareto(3.0, 0.005)
        draws = law.sample(np.random.default_rng(7), 10**6)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 0.0075) <= 3 * se

    def test_normal_median_near_zero(self):
        draws = NormalVolume(10.0).sample(np.random.default_rng(8), 10**6)
        assert abs(np.median(draws)) <= 0.05

    @pytest.mark.parametrize("law", [Pareto(3.0, 0.005), Exponential(50.0),
                                     NormalVolume(10.0), LaplaceVolume(2.0)], ids=str)
    def test_empirical_cdf_close(self, law):
        draws = law.sample(np.random.default_rng(99), 10**6)
        stat = kstest(draws, lambda x: np.asarray(law.cdf(x))).statistic
        assert stat < 0.005
