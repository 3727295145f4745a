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
    "config_number",
    "jump_law_from_config",
    "volume_law_from_config",
    "law_to_config",
]


def _maybe_scalar(x, out):
    """Return a float for scalar input, the ndarray otherwise."""
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Jump laws
# ---------------------------------------------------------------------------


class JumpLaw:
    """Law of a positive jump magnitude with finite mean.

    ``cdf`` is right-continuous (``P[B <= x]``), and ``tail_expectation``
    uses the strict event ``{B > x}``.  With those conventions the identity

        emax_ratio(x) = tail_expectation(x) / x + cdf(x)

    holds exactly, including for laws with atoms.
    """

    mean: float
    support_inf: float

    def cdf(self, x):
        raise NotImplementedError

    def tail_expectation(self, x):
        """E[B 1_{B>x}] for x >= 0."""
        raise NotImplementedError

    def emax_ratio(self, x):
        """E[max(B/x, 1)] for x > 0; decreasing, >= 1, -> 1 as x -> inf."""
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr <= 0.0):
            raise ValueError("emax_ratio requires x > 0")
        out = self.tail_expectation(x_arr) / x_arr + self.cdf(x_arr)
        return _maybe_scalar(x, out)

    def p_gt(self, x):
        """P[B > x] (strict)."""
        out = 1.0 - np.asarray(self.cdf(x), dtype=float)
        return _maybe_scalar(x, out)

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError


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

    @property
    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    @property
    def support_inf(self) -> float:
        return self.scale

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        xx = np.maximum(x_arr, self.scale)
        out = np.where(x_arr < self.scale, 0.0, 1.0 - (self.scale / xx) ** self.shape)
        return _maybe_scalar(x, out)

    def tail_expectation(self, x):
        a, s = self.shape, self.scale
        x_arr = np.asarray(x, dtype=float)
        xx = np.maximum(x_arr, s)
        tail = a * s**a * xx ** (1.0 - a) / (a - 1.0)
        out = np.where(x_arr <= s, self.mean, tail)
        return _maybe_scalar(x, out)

    def sample(self, rng: np.random.Generator, size=None):
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
        out = np.where(x_arr <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x_arr, 0.0)))
        return _maybe_scalar(x, out)

    def tail_expectation(self, x):
        x_arr = np.maximum(np.asarray(x, dtype=float), 0.0)
        at_inf = np.isinf(x_arr)        # the tail is 0 there; inf * exp(-inf) would be nan
        x_fin = np.where(at_inf, 0.0, x_arr)
        out = np.where(at_inf, 0.0, (x_fin + self.mean) * np.exp(-self.rate * x_fin))
        return _maybe_scalar(x, out)

    def sample(self, rng: np.random.Generator, size=None):
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
        out = np.where(x_arr >= self.value, 1.0, 0.0)
        return _maybe_scalar(x, out)

    def tail_expectation(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.where(x_arr < self.value, self.value, 0.0)
        return _maybe_scalar(x, out)

    def sample(self, rng: np.random.Generator, size=None):
        rng.random(size)  # consume the slot so draw streams stay aligned
        if size is None:
            return self.value
        return np.full(size, self.value)


# ---------------------------------------------------------------------------
# Volume laws
# ---------------------------------------------------------------------------


class VolumeLaw:
    """Law of the signed noise-trader volume; continuous, strictly
    increasing CDF with median exactly zero."""

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        """Inverse CDF on (0, 1); quantile(1/2) == 0 exactly."""
        raise NotImplementedError

    def p_gt(self, x):
        out = 1.0 - np.asarray(self.cdf(x), dtype=float)
        return _maybe_scalar(x, out)

    def sample(self, rng: np.random.Generator, size=None):
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
        out = 0.5 * np.asarray(_erfc(-z), dtype=float)
        return _maybe_scalar(x, out)

    def quantile(self, p):
        p_arr = self._check_p(p)
        return _maybe_scalar(p, self.sigma * _ndtri(p_arr))

    def sample(self, rng: np.random.Generator, size=None):
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
        out = np.where(
            x_arr < 0.0,
            0.5 * np.exp(np.minimum(x_arr, 0.0) / self.b),
            1.0 - 0.5 * np.exp(-np.maximum(x_arr, 0.0) / self.b),
        )
        return _maybe_scalar(x, out)

    def quantile(self, p):
        p_arr = self._check_p(p)
        out = np.where(
            p_arr < 0.5,
            self.b * np.log(2.0 * np.minimum(p_arr, 0.5)),
            -self.b * np.log(2.0 * (1.0 - np.maximum(p_arr, 0.5))),
        )
        return _maybe_scalar(p, out)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.laplace(0.0, self.b, size)


# ---------------------------------------------------------------------------
# Tagged-record configuration (the wire format used by the CLI)
# ---------------------------------------------------------------------------

_JUMP_KINDS = {
    "pareto": (Pareto, ("shape", "scale")),
    "exponential": (Exponential, ("rate",)),
    "pointmass": (PointMass, ("value",)),
}

_VOLUME_KINDS = {
    "normal": (NormalVolume, ("sigma",)),
    "laplace": (LaplaceVolume, ("b",)),
}

_KINDS = {**_JUMP_KINDS, **_VOLUME_KINDS}
_KIND_BY_CLASS = {cls: kind for kind, (cls, _fields) in _KINDS.items()}


def config_number(value, what: str, cast=float):
    """``cast(value)`` of a JSON number; anything else (null, a string, a
    boolean, a list) is a ValueError naming ``what``, and so is an
    infinite or nan integer or a fractional number for an integer (an
    integral one such as JSON ``1e5`` is accepted)."""
    kind = "an integer" if cast is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    try:
        number = cast(value)
    except (ValueError, OverflowError):
        raise ValueError(f"{what} must be {kind}, got {value!r}") from None
    if cast is int and isinstance(value, float) and number != value:
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return number


def _law_from_config(config: dict, kinds: dict, family: str):
    if not isinstance(config, dict) or "type" not in config:
        raise ValueError(f"{family} law config must be an object with a 'type' field")
    kind = config["type"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {family} law type {kind!r}; expected one of {sorted(kinds)}")
    cls, fields = kinds[kind]
    missing = [f for f in fields if f not in config]
    if missing:
        raise ValueError(f"{family} law {kind!r} missing fields: {missing}")
    extra = set(config) - set(fields) - {"type"}
    if extra:
        raise ValueError(f"{family} law {kind!r} has unknown fields: {sorted(extra)}")
    return cls(**{f: config_number(config[f], f"{family} law {kind!r} field {f!r}")
                  for f in fields})


def jump_law_from_config(config: dict) -> JumpLaw:
    return _law_from_config(config, _JUMP_KINDS, "jump")


def volume_law_from_config(config: dict) -> VolumeLaw:
    return _law_from_config(config, _VOLUME_KINDS, "volume")


def law_to_config(law) -> dict:
    kind = _KIND_BY_CLASS[type(law)]
    return {"type": kind, **{f: getattr(law, f) for f in _KINDS[kind][1]}}
