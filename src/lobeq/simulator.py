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
zero-profit closure is testable.

Informed probes queue behind the visible book; noise-maker probes queue
behind the noise makers' own (smaller) break-even curve, since their gain
is zero precisely at that depth.

Both paths score the probes with one numpy kernel,
:func:`lobeq.kernels.accumulate_pnl`.  The no-log path passes it the
static book: the closed-form one on the tick grid, or a user-supplied
:class:`BookShape`.  :class:`SimConfig` rejects a combination neither
path can run before any draw is made.  ``record_log=True`` switches to a
bookkeeping loop that maintains a two-sided order book on the absolute
tick grid and emits a market-by-order event log with ground-truth
participant labels.  The price moves only at jumps and at nonzero noise
drift, both drawn up front, so the whole price path and the integer
targets of every book state (one ``book_curves`` call for all states and
both sides) are computed before the loop; the loop only moves orders and
writes each row as its CSV line through :func:`lobeq.mbo.row_encoder`,
joining the lines into blocks of text between events.  The ask book each
event met is read from the same state tables and passed to the kernel.
"""

from __future__ import annotations

import io
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels
from .equilibrium import BookShape, ModelParams, book_curves, shape_tick
from . import mbo
from .mbo import ADD, ASK, BID, CANCEL, EXECUTE, EventLog

__all__ = [
    "SimConfig",
    "LevelPnl",
    "SimResult",
    "EventDraws",
    "draw_events",
    "run",
    "export_mbo",
]

@dataclass(frozen=True)
class SimConfig:
    """Simulation request.

    ``book_mode`` is either None (the book is the closed-form shape on the
    tick grid, reset after every event, which needs ``params.tick > 0``) or
    a user-supplied :class:`BookShape` whose ``informed``/``noise`` curves
    queue the probe orders.  ``record_log`` needs the closed-form book.
    ``volume_scale`` converts real volumes to the integer units used in
    exported logs.
    """

    params: ModelParams
    n_events: int
    seed: int
    book_mode: BookShape | None = None
    record_log: bool = False
    n_levels: int = 10
    volume_scale: int = 1_000_000

    def __post_init__(self):
        if self.n_events < 1:
            raise ValueError("n_events must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.n_levels < 1:
            raise ValueError("n_levels must be at least 1")
        if self.volume_scale < 1:
            raise ValueError("volume_scale must be a positive integer")
        if not isinstance(self.record_log, bool):
            raise ValueError(f"record_log must be true or false, got {self.record_log!r}")
        if self.book_mode is None:
            if self.params.tick <= 0.0:
                raise ValueError(f"the closed-form book needs a positive tick to place "
                                 f"levels, got tick = {self.params.tick}")
        elif not isinstance(self.book_mode, BookShape):
            raise ValueError(f"book_mode must be None or a BookShape, got {self.book_mode!r}")
        elif self.record_log:
            raise ValueError("record_log needs the closed-form book (book_mode=None)")
        else:
            self.book_mode.validate()
            if not np.all(np.isfinite(self.book_mode.informed)):
                raise ValueError("book_mode needs finite informed depth at every level")


@dataclass(frozen=True)
class LevelPnl:
    """Empirical gain of the probe order of one maker type at one level."""

    maker: str                     # "IMM" | "NMM"
    level: int                     # 1-based tick index
    n_fills: int
    mean_gain: float
    std_err: float


@dataclass
class SimResult:
    pnl: list[LevelPnl]
    summary: dict
    book: BookShape
    #: the CSV body of the market-by-order log of a ``record_log`` run, in
    #: blocks of about :data:`lobeq.mbo.BLOCK_ROWS` rows
    mbo_text: list[str] | None = None


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


def _nmm_level_split(eff_lvl, noise_cum) -> np.ndarray:
    """Per-level noise-maker quantity: front-load noise depth to match its
    cumulative curve without exceeding the visible level sizes (the noise
    curve need not be pointwise flatter level by level).

    Levels run along the last axis, any leading axes are independent
    books: one float book on the fast path, integer volume units of every
    book state of both sides on the logged path.
    """
    eff_lvl, noise_cum = np.asarray(eff_lvl), np.asarray(noise_cum)
    out = np.zeros_like(eff_lvl)
    placed = 0
    for level in range(eff_lvl.shape[-1]):
        want = noise_cum[..., level] - placed
        out[..., level] = np.where(want <= 0, 0, np.minimum(eff_lvl[..., level], want))
        placed = placed + out[..., level]
    return out


def _check_bounded(informed: np.ndarray) -> None:
    """Reject closed-form depths that are unbounded at some simulated level
    (one that faces no adverse selection, e.g. every level when f = 0)."""
    if not np.all(np.isfinite(informed)):
        raise ValueError(
            "the closed-form book is unbounded within the simulated levels; "
            "reduce n_levels to stay inside the adversely selected range"
        )


def _resolve_book(cfg: SimConfig) -> BookShape:
    if cfg.book_mode is not None:
        return cfg.book_mode
    book = shape_tick(cfg.params, cfg.n_levels)
    _check_bounded(book.informed)
    return book


# ---------------------------------------------------------------------------
# Fast path
# ---------------------------------------------------------------------------


def _pnl_rows(imm_n, imm_sum, imm_sumsq, nmm_n, nmm_sum, nmm_sumsq) -> list[LevelPnl]:
    rows = []
    for maker, cnt, s, sq in (("IMM", imm_n, imm_sum, imm_sumsq),
                              ("NMM", nmm_n, nmm_sum, nmm_sumsq)):
        for l in range(len(cnt)):
            n = int(cnt[l])
            if n == 0:
                rows.append(LevelPnl(maker, l + 1, 0, math.nan, math.nan))
                continue
            mean = s[l] / n
            if n > 1:
                var = max(0.0, (sq[l] - n * mean * mean) / (n - 1))
                se = math.sqrt(var / n)
            else:
                se = math.nan
            rows.append(LevelPnl(maker, l + 1, n, mean, se))
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

    Level by level it carries the sizes and race outcomes of the jumps
    that reach the level, and copies them only when a level drops some.
    """
    jump = draws.is_jump.astype(bool)
    size = draws.jump_size[jump]
    win = draws.it_wins[jump]
    buys = draws.noise_mag[draws.noise_sign > 0]
    depth_before = np.concatenate(([0.0], np.cumsum(eff_lvl)[:-1]))
    out = np.zeros(len(x))
    for level in range(len(x)):
        keep = x[level] <= size
        if np.count_nonzero(keep) < size.size:
            size, win = size[keep], win[keep]
        n_wins = np.count_nonzero(win)
        out[level] = (n_wins * eff_lvl[level] + (size.size - n_wins) * nmm_lvl[level]
                      + np.clip(buys - depth_before[level], 0.0, eff_lvl[level]).sum())
    return out


def _run_fast(cfg: SimConfig, book: BookShape, draws: EventDraws) -> SimResult:
    eff_lvl = book.per_level
    executed = _executed_volume(draws, book.grid, eff_lvl, _nmm_level_split(eff_lvl, book.noise))
    summary = {
        **_event_counts(draws),
        "executed_volume_per_level": executed.tolist(),
        "seed": cfg.seed,
    }
    pnl = _pnl_rows(*_probe_pnl(draws, book.grid, book.informed, book.noise))
    return SimResult(pnl=pnl, summary=summary, book=book)


# ---------------------------------------------------------------------------
# Logged path: two-sided book on the absolute tick grid, MBO export
# ---------------------------------------------------------------------------

_SNAP = 1e-9
#: the efficient price at the start of a logged run
P0 = 100.0


def _event_times(params: ModelParams, n_events: int, rng: np.random.Generator) -> np.ndarray:
    """Event timestamps in ns: exponential gaps at the total event rate,
    rounded to whole ns and at least 1 ns apart."""
    lam_i, lam_u = params.rates
    gaps = rng.exponential(1.0 / (lam_i + lam_u), n_events)
    return np.cumsum(np.maximum(1, np.round(gaps * 1e9).astype(np.int64)))


def _grid_layout(price: np.ndarray, tick: float, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices and distances of both sides' levels around each price,
    shape ``(len(price), 2, n_levels)``, side axis (BID, ASK), near to far.

    The first ask level is the smallest grid multiple of ``tick`` at or
    above the price (a price within a relative 1e-9 of a multiple counts
    as on it); the first bid level is the same index when the price is on
    the grid and the one below otherwise.
    """
    with np.errstate(over="ignore"):
        g = price / tick
    exact = np.abs(g) < 2.0**52     # grid indices exact as int64 and as float64
    if not np.all(exact):
        raise ValueError(f"record_log needs a finite price path within 2**52 ticks "
                         f"of zero; the price reached {price[~exact][0]} at tick {tick}")
    near = np.rint(g)
    a0 = np.where(np.abs(g - near) <= _SNAP * np.maximum(1.0, np.abs(g)), near,
                  np.ceil(g)).astype(np.int64)
    on_grid = np.abs(a0 * tick - price) <= _SNAP * np.maximum(1.0, price)
    step = np.arange(n_levels)
    idx = np.stack([np.where(on_grid, a0, a0 - 1)[:, None] - step, a0[:, None] + step], axis=1)
    level_px = idx * tick
    dist = np.stack([price[:, None] - level_px[:, BID], level_px[:, ASK] - price[:, None]], axis=1)
    return idx, np.maximum(dist, 0.0)


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
    ``_morph`` adds each maker's deficit at a level as one order at the
    back of the queue and cancels an excess from that maker's newest
    orders; ``_sweep`` fills from the front.  So a queue is in arrival
    order, and an informed order may wait behind a noise order.

    The price moves only at jumps and at nonzero noise drift, so its whole
    path, and with it every book the run will target, is computed before
    the event loop: state ``s`` is the price after the ``s``-th move.  The
    loop only moves orders and appends rows.  Between moves each side
    holds exactly its state's targets after every event, so the volume
    within a jump and the probe rows are read from the state tables.
    """

    def __init__(self, cfg: SimConfig, draws: EventDraws, times_ns: np.ndarray):
        self.cfg = cfg
        self.draws = draws
        self.times_ns = times_ns
        tick = cfg.params.tick

        # drift is zero at jump slots and when theta = 0; one running sum
        # adds the same floats in the same order as moving the price event
        # by event
        jump = draws.is_jump != 0
        self.moves = jump | (draws.drift != 0.0)
        steps = np.where(jump, draws.jump_size, draws.drift)[self.moves]
        with np.errstate(over="ignore", invalid="ignore"):   # _grid_layout rejects the overflow
            price = np.cumsum(np.concatenate(([P0], steps)))
        idx, dist = _grid_layout(price, tick, cfg.n_levels)
        informed, noise = book_curves(cfg.params, dist)
        _check_bounded(informed)
        # every target and noise volume must fit in int64 units; dividing,
        # not multiplying, keeps a huge integer scale from overflowing a float
        largest = max(informed.max(), noise.max(), draws.noise_mag[~jump].max(initial=0.0))
        if largest >= 2**63 / cfg.volume_scale:
            raise ValueError(f"volume_scale {cfg.volume_scale} is too large: a volume of "
                             f"{largest:.6g} becomes more units than an int64 holds")
        lvl = np.diff(np.round(informed * cfg.volume_scale).astype(np.int64), prepend=0)
        nmm = _nmm_level_split(lvl, np.round(noise * cfg.volume_scale).astype(np.int64))

        # per state and side, near to far: grid index, informed and noise units
        self.idx = idx.tolist()
        self.imm = (lvl - nmm).tolist()
        self.nmm = nmm.tolist()
        # keep grid prices identical to their CSV round-trip (a set, not
        # np.unique, which would import numpy.ma)
        self.px = {i: round(i * tick, 12) for i in set(idx.ravel().tolist())}
        # the state after the initial book (at ts 0) and after each event
        state = np.concatenate(([0], np.cumsum(self.moves)))

        # the ask book each event met, scored by the probe kernel afterwards,
        # which reads the level distances only at jumps and noise buys and
        # the queue depths only at buys
        before = state[:-1]
        self.probe_x = dist[before, ASK]
        self.probe_imm = informed[before, ASK]
        self.probe_nmm = noise[before, ASK]
        # a jump of size b sweeps the ask levels at distance <= b, a prefix
        within = self.probe_x <= draws.jump_size[:, None]
        self.n_swept = within.sum(axis=1).tolist()
        self.jump_volume = np.where(within, lvl[before, ASK], 0).sum(axis=1).tolist()

        self.levels: tuple[dict[int, deque], dict[int, deque]] = ({}, {})
        # the log's text: each row is encoded as it is emitted, and the lines
        # are joined into blocks between events, so no string per row outlives
        # its block
        self.blocks: list[str] = []
        self.n_rows = 0
        self.executed_units = 0            # passive execute qty, a Python int
        self._lines: list[str] = []
        self._emit = mbo.row_encoder(self._lines.append)
        self._next_oid = itertools.count(1).__next__

    # -- replenishment ----------------------------------------------------------

    def _morph(self, ts: int, side: int, s: int, n_levels: int | None = None) -> None:
        """Cancel/add whole orders until ``side`` matches the targets of
        state ``s``: every level when the state is new, only the first
        ``n_levels`` (the ones a sweep walked) otherwise."""
        book = self.levels[side]
        idxs = self.idx[s][side]
        if n_levels is None:
            lo, hi = (idxs[0], idxs[-1]) if side == ASK else (idxs[-1], idxs[0])
            for idx in [i for i in book if not lo <= i <= hi]:
                for order in book.pop(idx):
                    self._emit(ts, order.oid, CANCEL, side, self.px[idx],
                               order.qty, -1, order.participant)
            n_levels = len(idxs)
        for idx, imm_q, nmm_q in zip(idxs[:n_levels], self.imm[s][side][:n_levels],
                                     self.nmm[s][side][:n_levels]):
            dq = book.get(idx)
            if dq is None:
                dq = book[idx] = deque()
            have_imm = have_nmm = 0
            for order in dq:
                if order.participant == "IMM":
                    have_imm += order.qty
                else:
                    have_nmm += order.qty
            px = self.px[idx]
            for maker, excess in (("IMM", have_imm - imm_q), ("NMM", have_nmm - nmm_q)):
                if excess > 0:
                    for order in reversed(list(dq)):
                        if excess <= 0:
                            break
                        if order.participant != maker:
                            continue
                        self._emit(ts, order.oid, CANCEL, side, px, order.qty, -1, maker)
                        dq.remove(order)
                        excess -= order.qty
                if excess < 0:
                    oid = self._next_oid()
                    dq.append(_Order(oid, maker, -excess))
                    self._emit(ts, oid, ADD, side, px, -excess, -1, maker)

    # -- aggressive executions ------------------------------------------------

    def _sweep(self, ts: int, side: int, idxs: list[int], budget: int,
               label: str, limit_price: float | None = None) -> int:
        """Execute ``budget`` (> 0) units against ``side`` walking ``idxs``
        and return how many levels the fills walked, from ``idxs[0]`` to
        the last level filled (0 when nothing filled).

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

        if limit_price is None:
            limit_price = self.px[fills[-1][0] if fills else idxs[0]]
        aggr_side = BID if side == ASK else ASK
        aggr_oid = self._next_oid()
        self._emit(ts, aggr_oid, ADD, aggr_side, limit_price, budget, -1, label)
        for idx, oid, participant, qty in fills:
            px = self.px[idx]
            self._emit(ts, oid, EXECUTE, side, px, qty, 0, participant)
            self._emit(ts, aggr_oid, EXECUTE, aggr_side, px, qty, 1, label)
        if remaining > 0:
            self._emit(ts, aggr_oid, CANCEL, aggr_side, limit_price, remaining, -1, label)
        self.executed_units += budget - remaining
        return abs(fills[-1][0] - idxs[0]) + 1 if fills else 0

    # -- event handlers ---------------------------------------------------------

    def _handle_jump(self, ts: int, e: int, s: int, win: bool) -> int:
        swept = self.idx[s][ASK][:self.n_swept[e]]
        if not win:
            # the cancel beats the market order: informed quotes get away
            book = self.levels[ASK]
            for idx in swept:
                dq = book.get(idx)
                if not dq:
                    continue
                survivors = deque()
                for order in dq:
                    if order.participant == "IMM":
                        self._emit(ts, order.oid, CANCEL, ASK, self.px[idx],
                                   order.qty, -1, "IMM")
                    else:
                        survivors.append(order)
                book[idx] = survivors
        if self.jump_volume[e] > 0:
            return self._sweep(ts, ASK, swept, self.jump_volume[e], "IT",
                               limit_price=self.px[swept[-1]])
        return 0

    def _handle_noise(self, ts: int, s: int, side: int, mag: float) -> int:
        q_units = int(round(mag * self.cfg.volume_scale))
        if q_units == 0:
            return 0
        return self._sweep(ts, side, self.idx[s][side], q_units, "NT")

    # -- main loop ---------------------------------------------------------------

    def _cut(self) -> None:
        """Join the lines emitted since the last block into a new block."""
        self.blocks.append("".join(self._lines))
        self.n_rows += len(self._lines)
        self._lines.clear()

    def run_all(self) -> None:
        d = self.draws
        lines = self._lines
        self._morph(0, ASK, 0)
        self._morph(0, BID, 0)
        s = 0
        for e, (ts, is_jump, win, sign, mag, moves) in enumerate(zip(
                self.times_ns.tolist(), d.is_jump.tolist(), d.it_wins.tolist(),
                d.noise_sign.tolist(), d.noise_mag.tolist(), self.moves.tolist())):
            if is_jump:
                side = ASK
                walked = self._handle_jump(ts, e, s, bool(win))
            else:
                side = ASK if sign > 0 else BID
                walked = self._handle_noise(ts, s, side, mag)
            if moves:
                s += 1
                self._morph(ts, ASK, s)
                self._morph(ts, BID, s)
            elif walked:
                # only the walked levels differ from the unchanged targets
                self._morph(ts, side, s, walked)
            if len(lines) >= mbo.BLOCK_ROWS:
                self._cut()
        if lines:
            self._cut()


def _run_logged(cfg: SimConfig, draws: EventDraws, rng: np.random.Generator) -> SimResult:
    lr = _LoggedRun(cfg, draws, _event_times(cfg.params, cfg.n_events, rng))
    lr.run_all()

    book = shape_tick(cfg.params, cfg.n_levels)
    pnl = _pnl_rows(*_probe_pnl(draws, lr.probe_x, lr.probe_imm, lr.probe_nmm))
    summary = {
        **_event_counts(draws),
        # a Python int: exact at any size, and what json.dump writes
        "executed_units_total": lr.executed_units,
        "n_mbo_rows": lr.n_rows,
        "seed": cfg.seed,
    }
    return SimResult(pnl=pnl, summary=summary, book=book, mbo_text=lr.blocks)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def run(cfg: SimConfig) -> SimResult:
    """Run the event simulation; deterministic for a fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    draws = draw_events(cfg.params, cfg.n_events, rng)
    if cfg.record_log:
        return _run_logged(cfg, draws, rng)
    return _run_fast(cfg, _resolve_book(cfg), draws)


def export_mbo(result: SimResult) -> EventLog:
    """Market-by-order log of a ``record_log=True`` run (ground-truth
    participant labels included): :func:`lobeq.mbo.parse` of its text."""
    if result.mbo_text is None:
        raise ValueError("run was executed without record_log=True")
    # bytes behind a text reader: a StringIO of the text would hold four
    # bytes per character
    text = b"".join(block.encode() for block in (mbo.HEADER_LINE, *result.mbo_text))
    return mbo.parse(io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline=""))

