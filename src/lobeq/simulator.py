"""Event-driven Monte Carlo validation of the equilibrium book.

The market is simulated on its embedded event chain: each event is a price
jump with probability ``r`` and a noise trade otherwise (the two competing
Poisson clocks reduce to this Bernoulli chain once times are integrated
out, which is exactly the footing on which the conditional break-even
gains are defined).  After every event the book is reset to the
closed-form shape, so each fill of a marginal "probe" order at the back of
a queue is an unbiased draw of the conditional gain the shape construction
sets to zero:

* a jump of size B fills every ask probe at distance x < B at P&L x - B;
  informed-maker probes escape when the cancel wins the race (probability
  1 - f),
* a noise trade carries a signed volume (sign from the persistent
  two-state chain, magnitude from the folded volume law); a buy whose
  volume exceeds the depth ahead of a probe fills it at P&L x minus the
  trade's drift (exactly x when theta = 0).

Every jump in this chain is directed toward the simulated (ask) side while
noise volumes keep their sign: this is what the conditional-gain formulas
count (all jumps in the jump channel, only the above-median half of noise
volume in the noise channel), so it is the configuration under which the
zero-profit closure is testable.  Two-sided fair-coin jumps live in
:func:`simulate_price_path`, which feeds timestamped price series.

Informed probes queue behind the visible book; noise-maker probes queue
behind the noise makers' own (smaller) break-even curve, since their gain
is zero precisely at that depth.

Both paths score the probes with one numpy kernel,
:func:`lobeq.kernels.accumulate_pnl`.  The no-log path passes it the
static book.  ``record_log=True`` switches to a bookkeeping loop that
maintains a two-sided order book on the absolute tick grid and emits a
market-by-order event log with ground-truth participant labels; it records
the ask book each event met and passes those rows to the same kernel.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels
from .equilibrium import BookShape, ModelParams, book_curves, shape_tick
from .mbo import MboEvent

__all__ = [
    "SimConfig",
    "SimEvent",
    "LevelPnl",
    "SimResult",
    "PricePath",
    "EventDraws",
    "draw_events",
    "run",
    "simulate_price_path",
    "export_mbo",
]

EQUILIBRIUM_STATIC = "equilibrium_static"


@dataclass(frozen=True)
class SimConfig:
    """Simulation request.

    ``book_mode`` is either the string ``"equilibrium_static"`` (the book
    is the closed-form shape, reset after every event) or a user-supplied
    :class:`BookShape` whose ``informed``/``noise`` curves queue the probe
    orders.  ``volume_scale`` converts real volumes to the integer units
    used in exported logs.
    """

    params: ModelParams
    n_events: int
    seed: int
    book_mode: object = EQUILIBRIUM_STATIC
    record_log: bool = False
    n_levels: int = 10
    volume_scale: int = 1_000_000
    p0: float = 100.0

    def __post_init__(self):
        if self.n_events < 1:
            raise ValueError("n_events must be at least 1")
        if self.n_levels < 1:
            raise ValueError("n_levels must be at least 1")
        if self.volume_scale < 1:
            raise ValueError("volume_scale must be a positive integer")
        if not isinstance(self.record_log, bool):
            raise ValueError(f"record_log must be true or false, got {self.record_log!r}")
        if isinstance(self.book_mode, BookShape):
            self.book_mode.validate()
        elif self.book_mode != EQUILIBRIUM_STATIC:
            raise ValueError(
                f"book_mode must be {EQUILIBRIUM_STATIC!r} or a BookShape"
            )


@dataclass(frozen=True)
class SimEvent:
    """One event of a logged run."""

    t_ns: int
    kind: str                      # "jump" | "noise"
    side: int                      # +1 toward the ask book, -1 toward the bid
    size: float                    # jump magnitude or |volume|
    race_won_by: str | None        # "IT" | "IMM" for jumps
    executed_per_level: tuple      # ((side, grid index, qty units), ...)


@dataclass(frozen=True)
class LevelPnl:
    """Empirical gain of the probe order of one maker type at one level."""

    maker: str                     # "IMM" | "NMM"
    level: int                     # 1-based tick index
    distance: float                # nominal price distance of the level
    n_fills: int
    mean_gain: float
    std_err: float


@dataclass
class SimResult:
    pnl: list[LevelPnl]
    summary: dict
    book: BookShape
    events: list[SimEvent] | None = None
    mbo_events: list[MboEvent] | None = None
    quote_snapshots: list[tuple] | None = None   # (ts, bid_px, bid_qty, ask_px, ask_qty)


@dataclass(frozen=True)
class PricePath:
    times: np.ndarray              # seconds, starting at 0.0
    prices: np.ndarray             # value after the event at each time
    jump_times: np.ndarray
    noise_times: np.ndarray
    noise_signs: np.ndarray


# ---------------------------------------------------------------------------
# Random draws shared by the fast and the logged paths
# ---------------------------------------------------------------------------


@dataclass
class EventDraws:
    is_jump: np.ndarray            # uint8
    it_wins: np.ndarray            # uint8
    jump_size: np.ndarray          # float64
    noise_sign: np.ndarray         # int8, zero at jump slots
    noise_mag: np.ndarray          # float64
    drift: np.ndarray              # float64, zero at jump slots


def _sign_chain(n: int, gamma: float, rng: np.random.Generator, x0: int) -> np.ndarray:
    """Two-state chain with persistence P(X_j = X_{j-1}) = gamma."""
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    steps = np.where(rng.random(n) < gamma, 1, -1).astype(np.int8)
    return x0 * np.multiply.accumulate(steps)


def draw_events(params: ModelParams, n_events: int, rng: np.random.Generator) -> EventDraws:
    """Pre-draw every random input of an ``n_events`` run.

    Jump sizes and volume magnitudes are drawn for every slot (only the
    matching slots are consumed) so the draw stream does not depend on the
    realized event kinds.
    """
    is_jump = (rng.random(n_events) < params.r).astype(np.uint8)
    jump_size = np.asarray(params.jump.sample(rng, n_events), dtype=float)
    it_wins = (rng.random(n_events) < params.f).astype(np.uint8)
    noise_mag = np.abs(np.asarray(params.volume.sample(rng, n_events), dtype=float))

    noise_slots = is_jump == 0
    n_noise = int(noise_slots.sum())
    x0 = 1 if rng.random() < 0.5 else -1
    chain = _sign_chain(n_noise, params.gamma, rng, x0)
    noise_sign = np.zeros(n_events, dtype=np.int8)
    noise_sign[noise_slots] = chain

    drift = np.zeros(n_events, dtype=float)
    if n_noise:
        prev = np.concatenate(([np.int8(x0)], chain[:-1]))
        drift[noise_slots] = params.theta * (chain - params.rho * prev.astype(float))
    return EventDraws(is_jump, it_wins, jump_size, noise_sign, noise_mag, drift)


# ---------------------------------------------------------------------------
# Book preparation
# ---------------------------------------------------------------------------


def _nmm_level_split(eff_lvl, noise_cum) -> list:
    """Per-level noise-maker quantity: front-load noise depth to match its
    cumulative curve without exceeding the visible level sizes (the noise
    curve need not be pointwise flatter level by level).

    Plain Python numbers in and out: floats on the fast path, integer
    volume units on the logged path.
    """
    out = []
    placed = 0
    for level, cum in zip(eff_lvl, noise_cum):
        want = cum - placed
        take = 0 if want <= 0 else min(level, want)
        out.append(take)
        placed += take
    return out


def _resolve_book(cfg: SimConfig) -> BookShape:
    if isinstance(cfg.book_mode, BookShape):
        return cfg.book_mode
    if cfg.params.tick <= 0.0:
        raise ValueError(
            "equilibrium_static mode needs a positive tick to place levels; "
            "supply a BookShape for a custom grid"
        )
    return shape_tick(cfg.params, cfg.n_levels)


def _check_bounded(book: BookShape) -> None:
    if not np.all(np.isfinite(book.informed)):
        raise ValueError(
            "the book is unbounded on the simulated grid (f = 0 regime); "
            "simulation needs finite depth"
        )


# ---------------------------------------------------------------------------
# Fast path
# ---------------------------------------------------------------------------


def _pnl_rows(x, imm_n, imm_sum, imm_sumsq, nmm_n, nmm_sum, nmm_sumsq) -> list[LevelPnl]:
    rows = []
    for maker, cnt, s, sq in (("IMM", imm_n, imm_sum, imm_sumsq),
                              ("NMM", nmm_n, nmm_sum, nmm_sumsq)):
        for l in range(len(x)):
            n = int(cnt[l])
            if n == 0:
                rows.append(LevelPnl(maker, l + 1, float(x[l]), 0, math.nan, math.nan))
                continue
            mean = s[l] / n
            if n > 1:
                var = max(0.0, (sq[l] - n * mean * mean) / (n - 1))
                se = math.sqrt(var / n)
            else:
                se = math.nan
            rows.append(LevelPnl(maker, l + 1, float(x[l]), n, mean, se))
    return rows


def _event_counts(draws: EventDraws) -> dict:
    """Summary counters of a run, taken from its draws."""
    n_events = len(draws.is_jump)
    n_jumps = int(draws.is_jump.sum())
    n_wins = int((draws.is_jump & draws.it_wins).sum())
    return {
        "n_events": n_events,
        "n_jumps": n_jumps,
        "n_it_wins": n_wins,
        "n_noise_buys": int((draws.noise_sign > 0).sum()),
        "empirical_r": n_jumps / n_events,
        "empirical_f": n_wins / n_jumps if n_jumps else math.nan,
    }


def _probe_pnl(draws: EventDraws, x, imm_ahead, nmm_ahead) -> tuple:
    return kernels.accumulate_pnl(
        draws.is_jump, draws.it_wins, draws.jump_size, draws.noise_sign > 0,
        draws.noise_mag, draws.drift, x, imm_ahead, nmm_ahead,
    )


def _executed_volume(draws: EventDraws, x, eff_lvl, nmm_lvl) -> np.ndarray:
    """Volume executed per level of the static book.

    A jump of size B sweeps every level at distance x <= B: the whole level
    when the trader wins the race, only its noise part when the cancel
    wins.  A noise buy of magnitude q consumes the visible book from the
    front, ``clip(q - depth before the level, 0, level size)``.
    """
    jump = draws.is_jump.astype(bool)
    size = draws.jump_size[jump]
    win = draws.it_wins[jump].astype(bool)
    buys = draws.noise_mag[draws.noise_sign > 0]
    depth_before = np.concatenate(([0.0], np.cumsum(eff_lvl)[:-1]))
    out = np.zeros(len(x))
    for level in range(len(x)):
        keep = x[level] <= size
        size, win = size[keep], win[keep]
        n_wins = np.count_nonzero(win)
        out[level] = (n_wins * eff_lvl[level] + (size.size - n_wins) * nmm_lvl[level]
                      + np.clip(buys - depth_before[level], 0.0, eff_lvl[level]).sum())
    return out


def _run_fast(cfg: SimConfig, book: BookShape, draws: EventDraws) -> SimResult:
    eff_lvl = np.diff(book.informed, prepend=0.0)
    executed = _executed_volume(draws, book.grid, eff_lvl,
                                _nmm_level_split(eff_lvl.tolist(), book.noise.tolist()))
    summary = {
        **_event_counts(draws),
        "executed_volume_per_level": executed.tolist(),
        "seed": cfg.seed,
    }
    pnl = _pnl_rows(book.grid, *_probe_pnl(draws, book.grid, book.informed, book.noise))
    return SimResult(pnl=pnl, summary=summary, book=book)


# ---------------------------------------------------------------------------
# Logged path: two-sided book on the absolute tick grid, MBO export
# ---------------------------------------------------------------------------

_SNAP = 1e-9


def _grid_above(price: float, tick: float) -> int:
    """Index of the smallest grid multiple of ``tick`` at or above price."""
    g = price / tick
    near = round(g)
    if abs(g - near) <= _SNAP * max(1.0, abs(g)):
        return int(near)
    return math.ceil(g)


class _Order:
    __slots__ = ("oid", "participant", "qty")

    def __init__(self, oid: int, participant: str, qty: int):
        self.oid = oid
        self.participant = participant
        self.qty = qty


class _LoggedRun:
    """Sequential bookkeeping run emitting the market-by-order log.

    The ask book and the mirrored bid book live on the absolute tick grid;
    after every event the touched side is morphed back to the closed-form
    target volumes around the current efficient price (static-book
    replenishment, realised as whole-order cancels and adds in the log).
    Informed-maker volume queues in front of noise-maker volume at each
    level.
    """

    def __init__(self, cfg: SimConfig, draws: EventDraws):
        if cfg.params.tick <= 0.0:
            raise ValueError("record_log requires a positive tick")
        if isinstance(cfg.book_mode, BookShape):
            raise ValueError("record_log supports equilibrium_static mode only")
        self.cfg = cfg
        self.p = cfg.params
        self.draws = draws
        self.scale = cfg.volume_scale
        self.tick = cfg.params.tick
        self.price = cfg.p0
        self.rows: list[MboEvent] = []
        self.events: list[SimEvent] = []
        self.snapshots: list[tuple] = []
        self._oid = 0
        # side -> {grid index -> FIFO of orders}
        self.levels: dict[str, dict[int, deque]] = {"ask": {}, "bid": {}}
        self._curve_cache: dict[tuple, tuple] = {}
        # the ask book each event met, scored by the probe kernel afterwards:
        # level distances for jumps and noise buys, queue depths for buys
        shape = (cfg.n_events, cfg.n_levels)
        self.probe_x = np.zeros(shape)
        self.probe_imm = np.zeros(shape)
        self.probe_nmm = np.zeros(shape)

    # -- plumbing -----------------------------------------------------------

    def _next_oid(self) -> int:
        self._oid += 1
        return self._oid

    def _px(self, idx: int) -> float:
        # keep grid prices identical to their CSV round-trip
        return round(idx * self.tick, 12)

    def _emit(self, ts, oid, action, side, price, qty, aggressor=None, label=None):
        self.rows.append(MboEvent(
            ts_ns=ts, order_id=oid, action=action, side=side,
            price=round(price, 12), qty=qty,
            aggressor_flag=aggressor, participant_label=label,
        ))

    def _level_total(self, side: str, idx: int) -> int:
        dq = self.levels[side].get(idx)
        return sum(o.qty for o in dq) if dq else 0

    # -- layout and targets on the current grid ------------------------------

    def _side_layout(self, side: str) -> tuple[list[int], np.ndarray]:
        """Grid indices (near to far) and distances of one side's levels."""
        n = self.cfg.n_levels
        a0 = _grid_above(self.price, self.tick)
        on_grid = abs(a0 * self.tick - self.price) <= _SNAP * max(1.0, self.price)
        if side == "ask":
            idxs = [a0 + i for i in range(n)]
            dist = np.array([i * self.tick - self.price for i in idxs])
        else:
            b0 = a0 if on_grid else a0 - 1
            idxs = [b0 - i for i in range(n)]
            dist = np.array([self.price - i * self.tick for i in idxs])
        return idxs, np.maximum(dist, 0.0)

    def _curves(self, side: str, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the price only moves on jumps (and theta-drift), so cache per offset
        key = (side, round(float(dist[0]), 12))
        hit = self._curve_cache.get(key)
        if hit is None:
            hit = book_curves(self.p, dist)
            self._curve_cache[key] = hit
        return hit

    def _invalidate_curves(self) -> None:
        self._curve_cache.clear()

    def _side_targets(self, side: str) -> dict[int, tuple[int, int]]:
        """idx -> (informed qty, noise qty) in integer units."""
        idxs, dist = self._side_layout(side)
        informed, noise = self._curves(side, dist)
        if not np.all(np.isfinite(informed)):
            raise ValueError(
                "the closed-form book is unbounded within the simulated levels; "
                "reduce n_levels to stay inside the adversely selected range"
            )
        lvl_i = np.diff(np.round(informed * self.scale).astype(np.int64), prepend=0).tolist()
        lvl_u = _nmm_level_split(lvl_i, np.round(noise * self.scale).astype(np.int64).tolist())
        return {idx: (i - u, u) for idx, i, u in zip(idxs, lvl_i, lvl_u)}

    def _morph(self, ts: int, side: str) -> None:
        """Cancel/add whole orders until the side matches its targets."""
        targets = self._side_targets(side)
        book = self.levels[side]
        for idx in list(book):
            if idx not in targets:
                for order in book[idx]:
                    self._emit(ts, order.oid, "cancel", side, self._px(idx),
                               order.qty, label=order.participant)
                del book[idx]
        for idx, (imm_q, nmm_q) in targets.items():
            dq = book.get(idx)
            if dq is None:
                dq = book[idx] = deque()
            want = {"IMM": imm_q, "NMM": nmm_q}
            have = {"IMM": 0, "NMM": 0}
            for order in dq:
                have[order.participant] += order.qty
            px = self._px(idx)
            for maker in ("IMM", "NMM"):
                excess = have[maker] - want[maker]
                if excess > 0:
                    for order in reversed(list(dq)):
                        if excess <= 0:
                            break
                        if order.participant != maker:
                            continue
                        self._emit(ts, order.oid, "cancel", side, px,
                                   order.qty, label=maker)
                        dq.remove(order)
                        excess -= order.qty
                if excess < 0:
                    oid = self._next_oid()
                    dq.append(_Order(oid, maker, -excess))
                    self._emit(ts, oid, "add", side, px, -excess, label=maker)

    def _snapshot(self, ts: int) -> None:
        bid_px = bid_q = ask_px = ask_q = None
        for idx in sorted(self.levels["ask"]):
            q = self._level_total("ask", idx)
            if q > 0:
                ask_px, ask_q = self._px(idx), q
                break
        for idx in sorted(self.levels["bid"], reverse=True):
            q = self._level_total("bid", idx)
            if q > 0:
                bid_px, bid_q = self._px(idx), q
                break
        self.snapshots.append((ts, bid_px, bid_q, ask_px, ask_q))

    # -- aggressive executions ------------------------------------------------

    def _sweep(self, ts: int, side: str, idxs: list[int], budget: int,
               label: str, limit_price: float | None = None) -> list[tuple]:
        """Execute up to ``budget`` units against ``side`` walking ``idxs``.

        The fill list is computed first, then the rows are emitted in feed
        order: aggressor add, execute pairs (passive row then the
        aggressor's mirror row), cancel of the unfilled remainder.
        """
        book = self.levels[side]
        fills = []                      # (idx, oid, participant, qty)
        remaining = budget
        for idx in idxs:
            if remaining == 0:
                break
            dq = book.get(idx)
            while dq and remaining > 0:
                front = dq[0]
                take = min(front.qty, remaining)
                fills.append((idx, front.oid, front.participant, take))
                front.qty -= take
                remaining -= take
                if front.qty == 0:
                    dq.popleft()
        if budget == 0:
            return []

        if limit_price is None:
            limit_price = self._px(fills[-1][0] if fills else idxs[0])
        aggr_side = "bid" if side == "ask" else "ask"
        aggr_oid = self._next_oid()
        self._emit(ts, aggr_oid, "add", aggr_side, limit_price, budget, label=label)
        executed = []
        for idx, oid, participant, qty in fills:
            px = self._px(idx)
            self._emit(ts, oid, "execute", side, px, qty,
                       aggressor=False, label=participant)
            self._emit(ts, aggr_oid, "execute", aggr_side, px, qty,
                       aggressor=True, label=label)
            executed.append((side, idx, qty))
        if remaining > 0:
            self._emit(ts, aggr_oid, "cancel", aggr_side, limit_price,
                       remaining, label=label)
        return executed

    # -- event handlers ---------------------------------------------------------

    def _handle_jump(self, ts: int, e: int, b: float, win: bool) -> list[tuple]:
        idxs, dist = self._side_layout("ask")
        self.probe_x[e] = dist

        swept = [idx for idx, x in zip(idxs, dist) if x <= b]
        intended = sum(self._level_total("ask", idx) for idx in swept)
        if not win:
            # the cancel beats the market order: informed quotes get away
            for idx in swept:
                dq = self.levels["ask"].get(idx)
                if not dq:
                    continue
                survivors = deque()
                for order in dq:
                    if order.participant == "IMM":
                        self._emit(ts, order.oid, "cancel", "ask",
                                   self._px(idx), order.qty, label="IMM")
                    else:
                        survivors.append(order)
                self.levels["ask"][idx] = survivors
        executed = []
        if intended > 0:
            executed = self._sweep(ts, "ask", swept, intended, "IT",
                                   limit_price=self._px(swept[-1]))
        self.price += b
        self._invalidate_curves()
        self._morph(ts, "ask")
        self._morph(ts, "bid")
        return executed

    def _handle_noise(self, ts: int, e: int) -> list[tuple]:
        d = self.draws
        sign = int(d.noise_sign[e])
        mag = float(d.noise_mag[e])
        drift = float(d.drift[e])

        if sign > 0:
            _idxs, dist = self._side_layout("ask")
            self.probe_x[e] = dist
            self.probe_imm[e], self.probe_nmm[e] = self._curves("ask", dist)

        q_units = int(round(mag * self.scale))
        executed = []
        if q_units > 0:
            side = "ask" if sign > 0 else "bid"
            side_idxs, _ = self._side_layout(side)
            executed = self._sweep(ts, side, side_idxs, q_units, "NT")

        if self.p.theta != 0.0 and drift != 0.0:
            self.price += drift
            self._invalidate_curves()
            self._morph(ts, "ask")
            self._morph(ts, "bid")
        elif executed:
            self._morph(ts, executed[0][0])
        return executed

    # -- main loop ---------------------------------------------------------------

    def run_all(self, times_ns: np.ndarray) -> None:
        self._morph(0, "ask")
        self._morph(0, "bid")
        self._snapshot(0)
        d = self.draws
        for e in range(self.cfg.n_events):
            ts = int(times_ns[e])
            if d.is_jump[e]:
                win = bool(d.it_wins[e])
                executed = self._handle_jump(ts, e, float(d.jump_size[e]), win)
                self.events.append(SimEvent(
                    t_ns=ts, kind="jump", side=+1, size=float(d.jump_size[e]),
                    race_won_by="IT" if win else "IMM",
                    executed_per_level=tuple(executed),
                ))
            else:
                executed = self._handle_noise(ts, e)
                self.events.append(SimEvent(
                    t_ns=ts, kind="noise", side=int(d.noise_sign[e]),
                    size=float(d.noise_mag[e]), race_won_by=None,
                    executed_per_level=tuple(executed),
                ))
            self._snapshot(ts)


def _run_logged(cfg: SimConfig, draws: EventDraws, rng: np.random.Generator) -> SimResult:
    lam_i, lam_u = cfg.params.rates
    gaps = rng.exponential(1.0 / (lam_i + lam_u), cfg.n_events)
    gaps_ns = np.maximum(1, np.round(gaps * 1e9).astype(np.int64))
    times_ns = np.cumsum(gaps_ns)

    lr = _LoggedRun(cfg, draws)
    lr.run_all(times_ns)

    book = shape_tick(cfg.params, cfg.n_levels)
    pnl = _pnl_rows(book.grid, *_probe_pnl(draws, lr.probe_x, lr.probe_imm, lr.probe_nmm))
    executed_units = sum(
        q for ev in lr.events for (_side, _idx, q) in ev.executed_per_level
    )
    summary = {
        **_event_counts(draws),
        "executed_units_total": executed_units,
        "n_mbo_rows": len(lr.rows),
        "seed": cfg.seed,
    }
    return SimResult(pnl=pnl, summary=summary, book=book, events=lr.events,
                     mbo_events=lr.rows, quote_snapshots=lr.snapshots)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def run(cfg: SimConfig) -> SimResult:
    """Run the event simulation; deterministic for a fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    draws = draw_events(cfg.params, cfg.n_events, rng)
    if cfg.record_log:
        return _run_logged(cfg, draws, rng)
    book = _resolve_book(cfg)
    _check_bounded(book)
    return _run_fast(cfg, book, draws)


def export_mbo(result: SimResult) -> list[MboEvent]:
    """Market-by-order log of a ``record_log=True`` run (ground-truth
    participant labels included)."""
    if result.mbo_events is None:
        raise ValueError("run was executed without record_log=True")
    return result.mbo_events


def simulate_price_path(params: ModelParams, horizon: float, seed: int,
                        p0: float = 100.0) -> PricePath:
    """Efficient-price path: compound-Poisson jumps (fair-coin signs) plus
    the noise-trade surprise impact theta * (X_j - rho * X_{j-1})."""
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    lam_i, lam_u = params.rates

    n_jumps = int(rng.poisson(lam_i * horizon)) if lam_i > 0.0 else 0
    jump_times = np.sort(rng.random(n_jumps) * horizon)
    n_noise = int(rng.poisson(lam_u * horizon)) if lam_u > 0.0 else 0
    noise_times = np.sort(rng.random(n_noise) * horizon)

    jump_signs = np.where(rng.random(n_jumps) < 0.5, 1.0, -1.0)
    jump_sizes = np.asarray(params.jump.sample(rng, n_jumps), dtype=float)
    x0 = 1 if rng.random() < 0.5 else -1
    signs = _sign_chain(n_noise, params.gamma, rng, x0)
    if n_noise:
        prev = np.concatenate(([np.int8(x0)], signs[:-1]))
        noise_impact = params.theta * (signs - params.rho * prev.astype(float))
    else:
        noise_impact = np.zeros(0)

    times = np.concatenate(([0.0], jump_times, noise_times))
    increments = np.concatenate(([0.0], jump_signs * jump_sizes, noise_impact))
    order = np.argsort(times[1:], kind="stable") + 1
    order = np.concatenate(([0], order))
    times = times[order]
    prices = p0 + np.cumsum(increments[order])
    return PricePath(times=times, prices=prices, jump_times=jump_times,
                     noise_times=noise_times, noise_signs=signs)
