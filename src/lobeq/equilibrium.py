"""Closed-form book shapes and implicit spread equations.

Market makers add depth until a new infinitesimal order at the back of the
queue breaks even on average, conditional on being filled right now.  An
order at distance ``x`` from the efficient price is filled either by an
informed market order after a price jump larger than ``x`` (adverse
selection, with the jump channel discounted by the race parameter ``f`` for
informed makers, who cancel first with probability ``1 - f``) or by a noise
market order whose signed volume exceeds the depth ahead of it.

Setting the conditional gain to zero and inverting the volume CDF yields
the cumulative depth curves, from one formula for every book.  With jump
sources j (event fraction ``r_j``, tail functional
``emax_j(x) = E[max(B_j/x, 1)]``) the maker specialised in source k weighs
its own jumps by ``f`` and every other source's at full weight
(``w_kk = f``, ``w_kj = 1``; noise makers weigh all at 1):

    F_u(L_k(x)) = 1 + x/(x - theta_bar) * sum_j w_kj * r_j/(1 - sum r) * (1 - emax_j(x))

The noise-trader drift ``theta_bar`` enters through ``x / (x - theta_bar)``
and distances at or below it carry no depth.  A single source is the
one-source case; with several, the visible book is the pointwise maximum
of the per-source curves.

The half-spreads are roots of one equation in the distance x,

    emax(x) = 1 + c * (x - tb) / x,    c = (1/(2f)) * (1/r - 1)

(the 1/2 enters through the zero median of the volume law): ``phi``, where
the informed curve crosses zero depth, at tb = 0; the noise makers' ``mu``
at tb = 0 and f = 1; and the toxic ``phi_theta`` at tb = theta_bar.

Depth values are clamped: break-even arguments at or below 1/2 mean "no
depth here" (L = 0), arguments at or above 1 mean unbounded depth and are
reported as ``math.inf`` so downstream code can tell the three regimes
apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import JumpLaw, VolumeLaw
from .solvers import bisect_decreasing

__all__ = [
    "ModelParams",
    "ParamGrid",
    "JumpSource",
    "MultiSourceParams",
    "BookShape",
    "SpreadSolution",
    "SpreadArrays",
    "UnfillableLevelError",
    "ZeroSpreadRegime",
    "SolverError",
    "UNBOUNDED",
    "theta_bar",
    "gain_imm",
    "book_curves",
    "shape_continuous",
    "shape_tick",
    "shape_multi",
    "solve_spreads",
    "spread",
    "strict_ceil",
]

#: Sentinel for "unbounded depth" (break-even argument >= 1).
UNBOUNDED = math.inf


class UnfillableLevelError(RuntimeError):
    """Both fill channels have zero probability: the gain is undefined."""


class ZeroSpreadRegime(RuntimeError):
    """f = 0: informed makers always cancel first, depth is unbounded and
    the spread collapses to zero; there is no positive root to report."""


class SolverError(RuntimeError):
    """An implicit equation could not be bracketed or solved."""


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Full single-source parameterization.

    ``r`` is the fraction of market events that are price jumps,
    ``lambda_i / (lambda_i + lambda_u)``.  Either ``r`` or both intensities
    may be supplied; when both are populated they must agree to 1e-12.
    ``f`` is the race parameter: the probability that the informed trader's
    market order is processed before the informed maker's cancel.
    """

    r: float | None = None
    f: float = 1.0
    jump: JumpLaw = None
    volume: VolumeLaw = None
    lambda_i: float | None = None
    lambda_u: float | None = None
    theta: float = 0.0
    rho: float = 0.0
    tick: float = 0.0
    offset_d: float = 0.0

    def __post_init__(self):
        if self.jump is None or self.volume is None:
            raise ValueError("ModelParams requires a jump law and a volume law")
        if self.lambda_i is not None or self.lambda_u is not None:
            if self.lambda_i is None or self.lambda_u is None:
                raise ValueError("lambda_i and lambda_u must be supplied together")
            if self.lambda_i < 0.0 or self.lambda_u <= 0.0:
                raise ValueError("lambda_i must be >= 0 and lambda_u > 0")
            r_from_rates = self.lambda_i / (self.lambda_i + self.lambda_u)
            if self.r is None:
                object.__setattr__(self, "r", r_from_rates)
            elif abs(self.r - r_from_rates) > 1e-12:
                raise ValueError(
                    f"r = {self.r} inconsistent with lambda_i/(lambda_i+lambda_u) = {r_from_rates}"
                )
        if self.r is None:
            raise ValueError("either r or both event intensities must be supplied")
        # r = 0 (no jump source) is allowed as the degenerate price-path case
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r = {self.r} must lie in [0, 1)")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f = {self.f} must lie in [0, 1]")
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta = {self.theta} must be finite and nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho = {self.rho} must lie strictly between -1 and 1")
        if not self.tick >= 0.0:
            raise ValueError(f"tick = {self.tick} must be nonnegative")
        if self.tick > 0.0:
            if not 0.0 <= self.offset_d < self.tick:
                raise ValueError(f"offset_d = {self.offset_d} must lie in [0, tick)")
        elif self.offset_d != 0.0:
            raise ValueError(f"offset_d = {self.offset_d} requires a positive tick")

    @property
    def gamma(self) -> float:
        """Sign-persistence probability P(X_j = X_{j-1}) = (1 + rho) / 2."""
        return 0.5 * (1.0 + self.rho)

    @property
    def rates(self) -> tuple[float, float]:
        """(lambda_i, lambda_u); defaults to a unit total event rate."""
        if self.lambda_i is not None:
            return (self.lambda_i, self.lambda_u)
        return (self.r, 1.0 - self.r)


@dataclass(frozen=True)
class ParamGrid:
    """Single-source cells that share the laws, ``rho`` and the tick grid:
    the array form of :class:`ModelParams`, for batched solves.

    ``r``, ``f`` and ``theta`` broadcast to one 1-d array each, one entry
    per cell.  Every value passes the checks of the matching ModelParams
    field, so a grid holds exactly the cells ModelParams accepts.
    """

    r: np.ndarray
    f: np.ndarray
    theta: np.ndarray
    jump: JumpLaw
    volume: VolumeLaw
    rho: float = 0.0
    tick: float = 0.0
    offset_d: float = 0.0

    def __post_init__(self):
        cells = np.broadcast_arrays(
            *(np.array(v, dtype=float, ndmin=1) for v in (self.r, self.f, self.theta)))
        if cells[0].ndim != 1:
            raise ValueError("r, f and theta must broadcast to one 1-d array")
        shared = dict(jump=self.jump, volume=self.volume, rho=self.rho,
                      tick=self.tick, offset_d=self.offset_d)
        ModelParams(r=0.0, **shared)
        for name, values in zip(("r", "f", "theta"), cells):
            # ModelParams checks each field on its own, so one check per
            # distinct value (other fields at valid defaults) covers the grid;
            # ascending, as np.unique gave, which would import numpy.ma
            for value in dict.fromkeys(np.sort(values).tolist()):
                ModelParams(**{"r": 0.0, **shared, name: value})
            object.__setattr__(self, name, np.ascontiguousarray(values))

    def cell(self, i: int) -> str:
        """Cell ``i`` by its parameters, for error messages."""
        return f"cell (r, f, theta) = ({self.r[i]}, {self.f[i]}, {self.theta[i]})"


@dataclass(frozen=True)
class JumpSource:
    """One jump source: its event fraction, race parameter and jump law."""

    r: float
    f: float
    jump: JumpLaw

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"source fraction r = {self.r} must lie in [0, 1)")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f = {self.f} must lie in [0, 1]")


@dataclass(frozen=True)
class MultiSourceParams:
    """Several independent jump sources, each with its own specialised
    informed makers.  All sources must share one common race parameter;
    heterogeneous values are rejected rather than averaged."""

    sources: tuple[JumpSource, ...]
    volume: VolumeLaw

    def __post_init__(self):
        if not self.sources:
            raise ValueError("at least one jump source is required")
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.total_r < 1.0:
            raise ValueError(f"source fractions must sum to less than 1, got {self.total_r}")
        for k, s in enumerate(self.sources):
            if s.f != self.common_f:
                raise ValueError(f"source {k} has f = {s.f} but source 0 has f = "
                                 f"{self.common_f}: all sources must share a common "
                                 "race parameter f")

    @property
    def common_f(self) -> float:
        return self.sources[0].f

    @property
    def total_r(self) -> float:
        return sum(s.r for s in self.sources)


@dataclass
class BookShape:
    """Cumulative depth evaluated on a grid of distances from the efficient
    price.  ``informed`` is the visible book; ``noise`` is the noise
    makers' (smaller) break-even curve.  Unbounded depth is ``inf``."""

    grid: np.ndarray
    informed: np.ndarray
    noise: np.ndarray
    source_books: tuple[np.ndarray, ...] | None = None

    @property
    def per_level(self) -> np.ndarray:
        """Visible depth at each grid point: the first difference of
        ``informed``.  Consecutive unbounded levels difference to nan: a
        level's size is undefined once the cumulative book is infinite."""
        with np.errstate(invalid="ignore"):
            return np.diff(self.informed, prepend=0.0)

    def validate(self) -> None:
        """Check a book to queue orders on; a fault names its 1-based level."""
        grid = self.grid
        bad = np.flatnonzero(~((grid >= 0.0) & (grid < np.inf)))
        if bad.size:
            raise ValueError(f"grid distance {grid[bad[0]]} at level {bad[0] + 1} must be "
                             "finite and nonnegative")
        bad = np.flatnonzero(np.diff(grid) <= 0.0) + 1
        if bad.size:
            raise ValueError(f"grid must be strictly increasing: level {bad[0] + 1} at "
                             f"{grid[bad[0]]} follows {grid[bad[0] - 1]}")
        for name in ("informed", "noise"):
            curve = getattr(self, name)
            if len(curve) != len(self.grid):
                raise ValueError(f"{name} curve length does not match the grid")
            bad = np.flatnonzero(np.isnan(curve))
            if bad.size:
                raise ValueError(f"{name} cumulative depth at level {bad[0] + 1} is nan")
            finite = curve[np.isfinite(curve)]
            if np.any(finite < 0.0):
                raise ValueError(f"{name} cumulative depth must be nonnegative")
            if np.any(np.diff(curve) < 0.0):
                raise ValueError(f"{name} cumulative depth must be nondecreasing")


@dataclass
class SpreadSolution:
    """One model's half-spreads as :func:`spread` solves them: a cell of
    :class:`SpreadArrays`, each field meaning what it means there.  Every
    field is filled, except ``k_d`` and ``spread_tick`` without a tick;
    ``solver_iters`` counts the bisection steps of the reported root (the
    toxic one where theta_bar > 0)."""

    phi: float
    mu: float
    phi_theta: float
    k_d: int | None
    spread_tick: float | None
    solver_iters: int
    residual: float


@dataclass
class SpreadArrays:
    """Half-spread solves over the cells of a :class:`ParamGrid`.

    ``zero`` marks the zero-spread regime (f = 0 or r = 0): there ``phi``
    is 0 and ``mu``, ``phi_theta`` and ``residual`` are nan.  ``phi_theta``
    is the toxic half-spread (``phi`` where theta_bar = 0), and
    ``residual`` belongs to the reported root: the toxic one where
    theta_bar > 0, ``phi`` elsewhere.  With a positive tick, ``k_d`` and
    ``spread_tick`` are the tick quantities of ``phi``; without one they
    are None.  ``phi_iters`` and ``theta_iters`` are the bisection steps of
    the plain and the toxic solve, summed over cells.
    """

    phi: np.ndarray
    mu: np.ndarray
    phi_theta: np.ndarray
    residual: np.ndarray
    zero: np.ndarray
    k_d: np.ndarray | None
    spread_tick: np.ndarray | None
    phi_iters: int
    theta_iters: int


# ---------------------------------------------------------------------------
# Gains of a marginal order, conditional on a fill
# ---------------------------------------------------------------------------


def theta_bar(p: ModelParams | ParamGrid) -> float | np.ndarray:
    """Mean efficient-price drift conditional on a noise buy (per cell for
    a :class:`ParamGrid`).

    Under the stationary symmetric two-state sign chain the previous sign
    given a buy has mean rho, so the conditional surprise drift is
    theta * (1 - rho**2).
    """
    return p.theta * (1.0 - p.rho * p.rho)


def gain_imm(p: ModelParams, x: float, l_at_x: float) -> float:
    """Conditional average profit of a marginal informed-maker order at
    distance ``x`` with cumulative depth ``l_at_x`` ahead of it.

    The jump channel is discounted by the race parameter ``f``; at f = 0
    the maker always cancels first and the gain is exactly ``x``.
    """
    if not x > 0.0:
        raise ValueError("gain requires a positive distance x")
    if not l_at_x >= 0.0:
        raise ValueError(f"gain requires a nonnegative depth ahead, got {l_at_x}")
    weight = p.f * p.r
    p_noise = (1.0 - p.r) * p.volume.p_gt(l_at_x)
    denom = p_noise + weight * p.jump.p_gt(x)
    if denom == 0.0:
        raise UnfillableLevelError(
            f"no fill channel open at x = {x} with depth {l_at_x} ahead"
        )
    return x - (weight * p.jump.tail_expectation(x) + theta_bar(p) * p_noise) / denom


# ---------------------------------------------------------------------------
# Cumulative depth curves
# ---------------------------------------------------------------------------


_H_SNAP = 1e-12


def _invert_break_even(volume: VolumeLaw, h: np.ndarray) -> np.ndarray:
    """Map break-even CDF arguments to depth: h <= 1/2 -> 0 (no depth),
    h >= 1 -> unbounded sentinel, otherwise the volume quantile.

    Arguments within 1e-12 of 1/2 count as 1/2 so a spread landing exactly
    on a grid point leaves that level empty instead of carrying solver
    noise worth of depth.
    """
    out = np.zeros_like(h)
    out[h >= 1.0] = UNBOUNDED
    mid = (h > 0.5 + _H_SNAP) & (h < 1.0)
    if np.any(mid):
        out[mid] = volume.quantile(h[mid])
    return out


def _depth_curves(volume: VolumeLaw, x: np.ndarray, sources, f, tb) -> tuple[list, np.ndarray]:
    """Cumulative depth at distances ``x`` of the informed makers
    specialised in each of ``sources`` (``(r, jump law)`` pairs) and of
    the noise makers: the break-even formula of the module docstring.

    Distances at or below the drift ``tb`` carry no depth, an infinite one
    has unbounded depth (the limit of h is 1) and a nan one is rejected,
    naming its index.  ``r``, ``f`` and ``tb`` may be arrays that broadcast
    against ``x``.
    """
    if not (x >= 0.0).all():
        i = np.flatnonzero(~(x >= 0.0))[0]
        at = ", ".join(str(k) for k in np.unravel_index(i, x.shape))
        raise ValueError(f"distance {x.flat[i]} at index {at} must be a nonnegative number")
    live = x > tb
    finite = x < np.inf
    # off the live finite set the formula's value is discarded: any positive
    # stand-in other than tb keeps it finite, for every finite tb (tb + 1
    # rounds to tb past 2**53)
    xl = np.where(live & finite, x, np.where(tb < 1.0, tb + 1.0, tb / 2.0))
    factor = np.where(tb > 0.0, xl / (xl - tb), 1.0)
    total = sum(r for r, _ in sources)
    terms = [(r / (1.0 - total), 1.0 - jump.emax_ratio(xl)) for r, jump in sources]

    def depth(own):
        shift = 0
        for k, (base, gap) in enumerate(terms):
            shift = shift + (f if k == own else 1.0) * base * factor * gap
        h = np.where(live, 1.0 + shift, -np.inf)
        if not finite.all():
            h = np.where(finite, h, 1.0)
        return _invert_break_even(volume, h)

    return [depth(k) for k in range(len(sources))], depth(None)


def book_curves(p: ModelParams | ParamGrid, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative depth (informed, noise) at each distance in ``x``: the
    one-source case of the break-even argument, toxicity included.

    A :class:`ModelParams` gives curves shaped like ``x``; a
    :class:`ParamGrid` gives one row per cell, shape ``(n_cells,) +
    x.shape``.  Grid entries at x = 0 map to zero depth, infinite ones to
    unbounded depth; a nan distance is rejected, naming its index.
    """
    x = np.asarray(x, dtype=float)
    # parameters index the leading axes of the result, distances the trailing
    tail = (1,) * x.ndim
    r, f, tb = (v.reshape(v.shape + tail) if isinstance(v, np.ndarray) else v
                for v in (p.r, p.f, theta_bar(p)))
    (informed,), noise = _depth_curves(p.volume, x, [(r, p.jump)], f, tb)
    return informed, noise


def _positive_grid(x_grid) -> np.ndarray:
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("the continuous grid must be strictly positive")
    return x


def shape_continuous(p: ModelParams, x_grid) -> BookShape:
    """Visible book on a continuous price axis (no tick).  With
    noise-trader toxicity (theta > 0) distances at or below theta_bar carry
    no depth; theta = 0 is the baseline book."""
    if p.tick != 0.0:
        raise ValueError("shape_continuous requires tick = 0; use shape_tick")
    x = _positive_grid(x_grid)
    return BookShape(x, *book_curves(p, x))


def shape_tick(p: ModelParams, n_levels: int) -> BookShape:
    """Book on the tick grid: level i sits at distance d + (i-1)*tick.

    The first level at distance zero (d = 0) carries no depth.  Level
    sizes are :attr:`BookShape.per_level`.
    """
    if p.tick <= 0.0:
        raise ValueError("shape_tick requires a positive tick")
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    x = p.offset_d + p.tick * np.arange(n_levels, dtype=float)
    return BookShape(x, *book_curves(p, x))


def shape_multi(mp: MultiSourceParams, x_grid) -> BookShape:
    """Per-source break-even curves and their pointwise maximum (the
    visible book) under several independent jump sources."""
    x = _positive_grid(x_grid)
    books, l_u = _depth_curves(mp.volume, x, [(s.r, s.jump) for s in mp.sources],
                               mp.common_f, 0.0)
    return BookShape(x, np.maximum.reduce(books), l_u, tuple(books))


# ---------------------------------------------------------------------------
# Spread solvers
# ---------------------------------------------------------------------------


def _spread_roots(grid: ParamGrid, cells: np.ndarray, c: np.ndarray, tb: np.ndarray,
                  floor: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Roots ``x > tb``, at or above ``floor``, of ``emax(x) = 1 + c (x - tb)/x``
    for ``cells`` of ``grid``; returns the roots, the bisection steps and
    the relative residuals.

    ``E[B]/x <= emax(x) < 1 + E[B]/x``, the first an equality below the
    support infimum, so ``(E[B] + c tb)/(1 + c) = tb + (E[B] - tb)/(1 + c)``
    is the root there and a lower bracket elsewhere; so is that value raised
    to ``floor``, a root of the same equation at a smaller tb.  Where neither
    lies above tb the bracket is the next float above it, and the equation
    has a root exactly where emax there is above 1.  Where rounding leaves
    ``emax`` at or below the right side at the bracket, the bracket is the
    root.  ``tb + E[B]/c`` is the upper bracket; where rounding leaves emax
    above the right side there, the root is the float before it.  A failure
    names its cell.
    """
    jump = grid.jump
    bad = np.flatnonzero(~((1.0 + c > 1.0) & (c < np.inf)))
    if bad.size:
        i = bad[0]
        raise SolverError(f"emax equation needs a finite rhs > 1, got {1.0 + c[i]} at "
                          f"{grid.cell(cells[i])}")

    def rhs(x, k=slice(None)):
        return 1.0 + c[k] * (1.0 - tb[k] / x)         # exactly 1 + c at tb = 0

    lo = np.maximum(tb + (jump.mean - tb) / (1.0 + c), floor)    # c tb would overflow first
    lo = np.where(lo > tb, lo, np.nextafter(tb, np.inf))
    emax = jump.emax_ratio(lo)
    bad = np.flatnonzero(~(emax > 1.0))
    if bad.size:
        i = bad[0]
        raise SolverError(f"spread equation has no root above theta_bar = {tb[i]} at "
                          f"{grid.cell(cells[i])}: emax just above it is {emax[i]}, not above 1")
    solve = np.flatnonzero((lo > jump.support_inf) & (emax > rhs(lo)))
    with np.errstate(over="ignore"):         # inf lies above every float; g never sees it
        hi = tb[solve] + jump.mean / c[solve]
    root = bisect_decreasing(lambda x: jump.emax_ratio(x) - rhs(x, solve), lo[solve], hi)
    lo[solve] = root.x
    right = rhs(lo)
    return lo, root.iterations, np.abs(jump.emax_ratio(lo) - right) / right


def solve_spreads(grid: ParamGrid) -> SpreadArrays:
    """Half-spreads of every cell of ``grid`` in one batched pass: roots of
    the module's one equation ``emax(x) = 1 + c (x - tb)/x`` with
    ``c = (1/(2f)) (1/r - 1)``.

    ``phi`` is the root at tb = 0 and ``mu`` the same root at f = 1, so
    ``phi <= mu`` with equality iff f = 1.  Where theta_bar > 0 the toxic
    half-spread ``phi_theta`` is the root at tb = theta_bar on
    ``(theta_bar, inf)``; the left side decreases and the right side
    increases in x, so the root is unique, and ``phi_theta > theta_bar``,
    ``phi_theta >= phi``.  With a positive tick, ``k_d`` is the first
    occupied level, the smallest k with ``d + (k-1)*tick > phi``, and the
    quoted spread adds the symmetric bid-side ceiling at offset
    ``tick - d``.

    Raises :class:`SolverError` naming the first cell whose equation has
    no root (a toxic cell where emax just above theta_bar is 1); a bisection
    ends at adjacent floats, and ``residual`` is not judged.
    """
    n = grid.r.size
    zero = (grid.f == 0.0) | (grid.r == 0.0)
    cells = np.flatnonzero(~zero)
    r = grid.r[cells]
    with np.errstate(over="ignore"):         # an infinite c is rejected by name
        c_phi, c_mu = [(1.0 / (2.0 * race)) * (1.0 / r - 1.0) for race in (grid.f[cells], 1.0)]
    no_drift = np.zeros(cells.size)
    phi_c, phi_iters, res_c = _spread_roots(grid, cells, c_phi, no_drift, no_drift)
    mu_c, _, _ = _spread_roots(grid, cells, c_mu, no_drift, no_drift)

    phi = np.zeros(n)
    mu, phi_theta, residual = np.full((3, n), np.nan)
    phi[cells], mu[cells], phi_theta[cells], residual[cells] = phi_c, mu_c, phi_c, res_c

    tb = theta_bar(grid)[cells]
    toxic = tb > 0.0
    phi_theta[cells[toxic]], theta_iters, residual[cells[toxic]] = _spread_roots(
        grid, cells[toxic], c_phi[toxic], tb[toxic], phi_c[toxic])

    k_d = spread_ticks = None
    if grid.tick > 0.0:
        # the distances to the first ask and bid levels, checked before the
        # division, which a tiny tick would overflow
        reach = np.array([phi - grid.offset_d, phi + grid.offset_d])
        far = np.flatnonzero(np.any(np.abs(reach) / 2.0**62 >= grid.tick, axis=0))
        if far.size:
            i = far[0]
            raise ValueError(f"tick = {grid.tick} is too small: the half-spread {phi[i]} "
                             f"spans 2**62 ticks or more at {grid.cell(i)}")
        steps_ask, steps_bid = strict_ceil(reach / grid.tick)
        k_d = 1 + steps_ask
        spread_ticks = grid.tick * (steps_ask + steps_bid)
    return SpreadArrays(phi=phi, mu=mu, phi_theta=phi_theta, residual=residual,
                        zero=zero, k_d=k_d, spread_tick=spread_ticks,
                        phi_iters=phi_iters, theta_iters=theta_iters)


def strict_ceil(y: np.ndarray) -> np.ndarray:
    """Smallest integer strictly greater than each element of ``y``, as
    int64.

    Values within 1e-9 (relative) of an integer are treated as that
    integer, so a spread landing exactly on a tick boundary leaves the
    boundary level empty rather than depending on float noise.
    """
    if not np.all(np.abs(y) < 2.0**62):
        raise ValueError(f"strict_ceil: {y} is out of the int64 range")
    nearest = np.round(y)
    snap = np.abs(y - nearest) <= 1e-9 * np.maximum(1.0, np.abs(y))
    return (np.where(snap, nearest, np.floor(y)) + 1.0).astype(np.int64)


def spread(p: ModelParams) -> SpreadSolution:
    """:func:`solve_spreads` on the one cell of ``p``; raises
    :class:`ZeroSpreadRegime` at f = 0 or r = 0."""
    sol = solve_spreads(ParamGrid(r=p.r, f=p.f, theta=p.theta, jump=p.jump, volume=p.volume,
                                  rho=p.rho, tick=p.tick, offset_d=p.offset_d))
    if sol.zero[0]:
        raise ZeroSpreadRegime(
            "no adverse selection (f = 0 or r = 0): depth is unbounded and "
            "the spread collapses to zero"
        )
    cell = {name: None if (values := getattr(sol, name)) is None else values.item()
            for name in ("phi", "mu", "phi_theta", "k_d", "spread_tick", "residual")}
    iters = sol.theta_iters if theta_bar(p) > 0.0 else sol.phi_iters
    return SpreadSolution(**cell, solver_iters=iters)


# names of :func:`spread` that perfbench/spans.py wraps by name
spread_continuous = spread_tick = spread_toxic = spread
