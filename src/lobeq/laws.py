"""Probability laws for efficient-price jumps and noise-trader volumes.

Two closed families are supported:

* jump laws -- the magnitude of an efficient-price jump, strictly positive
  support: ``Pareto``, ``Exponential`` and ``PointMass``.  Besides the CDF
  they expose the tail expectation ``E[B 1_{B>x}]`` and the ratio
  ``E[max(B/x, 1)]``, the two functionals every book-shape and spread
  formula consumes.
* volume laws -- signed noise-trader volumes with median exactly zero:
  ``NormalVolume`` and ``LaplaceVolume``.  The zero median is load-bearing
  (the half-spread construction inverts the CDF at 1/2), so constructors
  reject anything else by design: the location parameter simply does not
  exist.

All laws are immutable and safe to share across threads.  Sampling takes an
explicit ``numpy.random.Generator`` owned by the caller; there is no hidden
global RNG state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JumpLaw",
    "VolumeLaw",
    "Pareto",
    "Exponential",
    "PointMass",
    "NormalVolume",
    "LaplaceVolume",
]


class _Law:
    """What both families share: a right-continuous CDF, its strict tail, sampling.

    Every method takes arrays and returns what numpy gives: a scalar in
    gives a 0-d value out.
    """

    def cdf(self, x):
        raise NotImplementedError

    def p_gt(self, x):
        """P[X > x] (strict)."""
        return 1.0 - self.cdf(x)

    def sample(self, rng: np.random.Generator, size):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Jump laws
# ---------------------------------------------------------------------------


class JumpLaw(_Law):
    """Law of a positive jump magnitude with finite mean.

    ``cdf`` is right-continuous (``P[B <= x]``), and ``tail_expectation``
    uses the strict event ``{B > x}``.  With those conventions the identity

        emax_ratio(x) = tail_expectation(x) / x + cdf(x)

    holds exactly, including for laws with atoms.
    """

    mean: float
    support_inf: float

    def tail_expectation(self, x):
        """E[B 1_{B>x}] for x >= 0."""
        raise NotImplementedError

    def emax_ratio(self, x):
        """E[max(B/x, 1)] for x > 0; decreasing, >= 1, -> 1 as x -> inf."""
        x_arr = np.asarray(x, dtype=float)
        if not np.all(x_arr > 0.0):                     # nan fails the comparison
            raise ValueError("emax_ratio requires x > 0")
        return self.tail_expectation(x_arr) / x_arr + self.cdf(x_arr)


@dataclass(frozen=True)
class Pareto(JumpLaw):
    """Pareto law on [scale, inf) with tail exponent ``shape`` > 1."""

    shape: float
    scale: float

    def __post_init__(self):
        if not self.shape > 1.0:
            raise ValueError("Pareto shape must exceed 1 for a finite mean")
        if not self.scale > 0.0:
            raise ValueError("Pareto scale must be positive")
        # the tail expectation's factors must be normal floats: a scale**shape
        # that underflows times an infinite xx**(1 - shape) would be nan
        try:
            factor = self.scale**self.shape
        except OverflowError:
            factor = math.inf
        if not (factor >= sys.float_info.min and math.isfinite(self.shape * factor)
                and math.isfinite(self.mean)):
            fault = "underflows" if factor < 1.0 else "overflows"
            raise ValueError(f"Pareto scale {self.scale} to the power shape {self.shape} "
                             f"{fault} a float")

    @property
    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    @property
    def support_inf(self) -> float:
        return self.scale

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        xx = np.maximum(x_arr, self.scale)
        return np.where(x_arr < self.scale, 0.0, 1.0 - (self.scale / xx) ** self.shape)

    def tail_expectation(self, x):
        a, s = self.shape, self.scale
        x_arr = np.asarray(x, dtype=float)
        xx = np.maximum(x_arr, s)
        tail = a * s**a * xx ** (1.0 - a) / (a - 1.0)
        return np.where(x_arr <= s, self.mean, tail)

    def sample(self, rng: np.random.Generator, size):
        u = rng.random(size)
        return self.scale * (1.0 - u) ** (-1.0 / self.shape)


@dataclass(frozen=True)
class Exponential(JumpLaw):
    """Exponential law on (0, inf) with the given rate (per price unit)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError("Exponential rate must be positive")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def support_inf(self) -> float:
        return 0.0

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        return np.where(x_arr <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x_arr, 0.0)))

    def tail_expectation(self, x):
        x_arr = np.maximum(np.asarray(x, dtype=float), 0.0)
        at_inf = np.isinf(x_arr)        # the tail is 0 there; inf * exp(-inf) would be nan
        x_fin = np.where(at_inf, 0.0, x_arr)
        return np.where(at_inf, 0.0, (x_fin + self.mean) * np.exp(-self.rate * x_fin))

    def sample(self, rng: np.random.Generator, size):
        return rng.exponential(self.mean, size)


@dataclass(frozen=True)
class PointMass(JumpLaw):
    """Degenerate law: every jump has the same positive magnitude."""

    value: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise ValueError("PointMass value must be positive")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def support_inf(self) -> float:
        return self.value

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        return np.where(x_arr >= self.value, 1.0, 0.0)

    def tail_expectation(self, x):
        x_arr = np.asarray(x, dtype=float)
        return np.where(x_arr < self.value, self.value, 0.0)

    def sample(self, rng: np.random.Generator, size):
        rng.random(size)  # consume the slot so draw streams stay aligned
        return np.full(size, self.value)


# ---------------------------------------------------------------------------
# Volume laws
# ---------------------------------------------------------------------------


class VolumeLaw(_Law):
    """Law of the signed noise-trader volume; continuous, strictly
    increasing CDF with median exactly zero."""

    def quantile(self, p):
        """Inverse CDF on (0, 1); quantile(1/2) == 0 exactly."""
        raise NotImplementedError

    @staticmethod
    def _check_p(p):
        p_arr = np.asarray(p, dtype=float)
        if not np.all((p_arr > 0.0) & (p_arr < 1.0)):     # nan fails both comparisons
            raise ValueError("quantile requires 0 < p < 1")
        return p_arr


# numpy has no erfc; the normal CDF is only evaluated on scalars and small arrays
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Wichura (1988), "Algorithm AS 241: The percentage points of the normal
# distribution", Applied Statistics 37(3), 477-484: PPND16, accurate to
# about 1e-16.  Numerator and denominator coefficients of each rational
# branch, highest power first, as in the stdlib's statistics.NormalDist.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_AS241_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each ``p`` in (0, 1) by AS 241, one
    vectorized pass per branch: ``|p - 1/2| <= 0.425``, then the tails by
    ``r = sqrt(-log(min(p, 1 - p)))`` up to 5 and beyond."""
    q = p - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    num, den = _AS241_CENTRAL
    r = 0.180625 - qc * qc
    x[central] = np.polyval(num, r) * qc / np.polyval(den, r)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[tail], 1.0 - p[tail])))
    xt = np.empty_like(r)
    near = r <= 5.0
    for part, (num, den), shift in ((near, _AS241_NEAR_TAIL, 1.6),
                                    (~near, _AS241_FAR_TAIL, 5.0)):
        t = r[part] - shift
        xt[part] = np.polyval(num, t) / np.polyval(den, t)
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x


@dataclass(frozen=True)
class NormalVolume(VolumeLaw):
    """Centered normal volumes with standard deviation ``sigma``."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")

    def cdf(self, x):
        z = np.asarray(x, dtype=float) / (self.sigma * math.sqrt(2.0))
        return 0.5 * np.asarray(_erfc(-z), dtype=float)

    def quantile(self, p):
        p_arr = self._check_p(p)
        return self.sigma * _ndtri(p_arr)

    def sample(self, rng: np.random.Generator, size):
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class LaplaceVolume(VolumeLaw):
    """Centered Laplace volumes with scale ``b`` (heavier tails than normal)."""

    b: float

    def __post_init__(self):
        if not self.b > 0.0:
            raise ValueError("b must be positive")

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        return np.where(
            x_arr < 0.0,
            0.5 * np.exp(np.minimum(x_arr, 0.0) / self.b),
            1.0 - 0.5 * np.exp(-np.maximum(x_arr, 0.0) / self.b),
        )

    def quantile(self, p):
        p_arr = self._check_p(p)
        return np.where(
            p_arr < 0.5,
            self.b * np.log(2.0 * np.minimum(p_arr, 0.5)),
            -self.b * np.log(2.0 * (1.0 - np.maximum(p_arr, 0.5))),
        )

    def sample(self, rng: np.random.Generator, size):
        return rng.laplace(0.0, self.b, size)
