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
:class:`BookShape`.  It draws and scores the events in chunks of
:data:`CHUNK_EVENTS`, so its memory does not grow with ``n_events``: each
random input reads its own part of the stream with a generator of its own,
so the draws are those of :func:`draw_events`, and the per-level sums are
added chunk by chunk (their last digits depend on :data:`CHUNK_EVENTS`).
The event kinds and race outcomes are bool masks as drawn.  One kernel
scan of a chunk's jumps fills both makers' probes and counts the levels
each jump sweeps, the one count the executed volume is priced from.
:class:`SimConfig` rejects a combination neither path can run before any
draw is made.  ``record_log=True`` switches to a
bookkeeping loop that maintains a two-sided order book on the absolute
tick grid and emits a market-by-order event log with ground-truth
participant labels.  The price moves only at jumps and at nonzero noise
drift, both drawn up front, so the whole price path and the integer
targets of every book state (one ``book_curves`` call for all states and
both sides) are computed before the loop; the loop only moves orders and
writes each row as its CSV line through :func:`lobeq.mbo.row_encoder`,
joining the lines into blocks of text between events.  Between moves each
side holds exactly its state's targets, so a noise trade that does not
move the price is refilled from what its sweep took, and a whole side is
re-targeted only at a move.  The ask book each event met is read from the
same state tables and passed to the kernel.
"""

from __future__ import annotations

import copy
import io
import itertools
import math
import sys
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
        if self.n_events >= 2**63:                  # the run counts events in int64
            raise ValueError(f"n_events must be below 2**63, the int64 limit, "
                             f"got {self.n_events}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.n_levels < 1:
            raise ValueError("n_levels must be at least 1")
        if self.volume_scale < 1:
            raise ValueError("volume_scale must be a positive integer")
        # a level's sum of squared drift gains is at most n_events * gain**2
        theta, rho = self.params.theta, self.params.rho
        gain = theta * (1.0 + abs(rho))
        if gain and math.log(self.n_events) + 2 * math.log(gain) > math.log(sys.float_info.max):
            raise ValueError(f"theta = {theta} with rho = {rho} is too large for n_events = "
                             f"{self.n_events}: n_events * (theta * (1 + |rho|))**2 overflows "
                             f"a float")
        if not isinstance(self.record_log, bool):
            raise ValueError(f"record_log must be true or false, got {self.record_log!r}")
        if self.book_mode is None:
            if self.params.tick <= 0.0:
                raise ValueError(f"the closed-form book needs a positive tick to place "
                                 f"levels, got tick = {self.params.tick}")
            if self.record_log and self.params.offset_d != 0.0:
                raise ValueError(f"record_log puts levels on the tick grid and reads no "
                                 f"offset_d; got offset_d = {self.params.offset_d}")
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
    #: blocks of about :data:`lobeq.mbo.BLOCK_ROWS` rows; None without
    #: ``record_log`` and when ``run`` wrote the log to a ``log`` path
    mbo_text: list[str] | None = None


# ---------------------------------------------------------------------------
# Random draws shared by the fast and the logged paths
# ---------------------------------------------------------------------------


@dataclass
class EventDraws:
    is_jump: np.ndarray            # bool
    it_wins: np.ndarray            # bool, read at jump slots
    jump_size: np.ndarray          # float64
    noise_sign: np.ndarray         # int8, zero at jump slots
    noise_mag: np.ndarray          # float64
    drift: np.ndarray              # float64, zero at jump slots


#: events drawn and scored at a time on the fast path, so that its memory
#: does not grow with ``n_events``
CHUNK_EVENTS = 1 << 16


def _draw(rng: np.random.Generator, law, k: int) -> np.ndarray:
    """``k`` values of ``law``, or ``k`` uniforms when ``law`` is None."""
    return rng.random(k) if law is None else law.sample(rng, k)


def _skip(rng: np.random.Generator, n: int, law) -> None:
    """Move ``rng`` past ``_draw(rng, law, n)``: one step per value where a
    value is one double, and otherwise by drawing and discarding in chunks."""
    if law is None or law.one_double_per_value:
        rng.bit_generator.advance(n)
        return
    for start in range(0, n, CHUNK_EVENTS):
        law.sample(rng, min(CHUNK_EVENTS, n - start))


def _draw_chunks(params: ModelParams, n_events: int, rng: np.random.Generator,
                 chunk: int):
    """Yield the draws of an ``n_events`` run in chunks of ``chunk`` events
    (one empty chunk when ``n_events`` is 0).

    The stream holds, in order, ``n_events`` uniforms for the event kinds,
    ``n_events`` jump sizes, ``n_events`` uniforms for the races,
    ``n_events`` signed volumes, one uniform for the chain's first sign and
    one per noise event for the sign chain.  Each part is read by a
    generator of its own: the first chunk of each part is drawn in stream
    order, and the next part's generator is a copy moved past the rest of
    the part.  So the draws do not depend on ``chunk``, and one chunk of
    ``n_events`` skips nothing.  The sign chain carries its last sign across
    chunks.  Once the chunks run out, ``rng`` stands at the stream's end.
    """
    laws = (None, params.jump, None, params.volume)
    parts, first = [], []
    g = rng
    for law in laws:
        first.append(_draw(g, law, min(chunk, n_events)))
        parts.append(g)
        g = copy.deepcopy(g)
        _skip(g, n_events - len(first[-1]), law)
    signs = g
    last = np.int8(1 if signs.random() < 0.5 else -1)
    for begin in range(0, max(n_events, 1), chunk):
        k = min(chunk, n_events - begin)
        u_kind, jump_size, u_race, noise_mag = first or [
            _draw(g, law, k) for g, law in zip(parts, laws)]
        # the first chunk's values are used once, and no uniform outlives
        # its chunk
        is_jump, it_wins = u_kind < params.r, u_race < params.f
        first = u_kind = u_race = None
        jump_size = np.asarray(jump_size, dtype=float)
        noise_mag = np.asarray(noise_mag, dtype=float)
        np.abs(noise_mag, out=noise_mag)

        # the sign chain has persistence P(X_j = X_{j-1}) = gamma
        noise_slots = ~is_jump
        steps = signs.random(np.count_nonzero(noise_slots)) < params.gamma
        chain = last * np.multiply.accumulate(np.where(steps, np.int8(1), np.int8(-1)))
        noise_sign = np.zeros(k, dtype=np.int8)
        noise_sign[noise_slots] = chain
        drift = np.zeros(k, dtype=float)
        if chain.size:
            prev = np.concatenate(([last], chain[:-1]))
            drift[noise_slots] = params.theta * (chain - params.rho * prev.astype(float))
            last = chain[-1]
        yield EventDraws(is_jump, it_wins, jump_size, noise_sign, noise_mag, drift)
    rng.bit_generator.state = signs.bit_generator.state


def draw_events(params: ModelParams, n_events: int, rng: np.random.Generator) -> EventDraws:
    """Every random input of an ``n_events`` run, drawn as one chunk.

    Jump sizes and volume magnitudes are drawn for every slot (only the
    matching slots are consumed) so the draw stream does not depend on the
    realized event kinds.  The fast path reads the same draws chunk by
    chunk; either way ``rng`` is left at the end of the stream, and its bit
    generator must have ``advance`` (numpy's default PCG64 has it).
    """
    (draws,) = _draw_chunks(params, n_events, rng, max(n_events, 1))
    return draws


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


def _tally(jump, wins, buy) -> np.ndarray:
    """Jumps, races the trader won and noise buys, counted from the masks."""
    return np.array([np.count_nonzero(jump), np.count_nonzero(jump & wins),
                     np.count_nonzero(buy)])


def _summary_counts(n_events: int, n_jumps: int, n_wins: int, n_buys: int) -> dict:
    return {
        "n_events": n_events,
        "n_jumps": n_jumps,
        "n_it_wins": n_wins,
        "n_noise_buys": n_buys,
        "empirical_r": n_jumps / n_events,
        "empirical_f": n_wins / n_jumps if n_jumps else math.nan,
    }


def _executed_volume(draws: EventDraws, x, eff_lvl, nmm_lvl, swept) -> np.ndarray:
    """Volume executed per level of the static book.

    A jump of size B sweeps every level at distance x <= B: the whole level
    when the trader wins the race, only its noise part when the cancel
    wins.  A noise buy of magnitude q consumes the visible book from the
    front, ``clip(q - depth before the level, 0, level size)``.

    ``swept`` holds the sweeping jumps, lost races in row 0 and won in row
    1, as the kernel counts them in the scan that fills the probes
    (``accumulate_pnl(..., swept=...)``).
    """
    buys = draws.noise_mag[draws.noise_sign > 0]
    depth_before = np.concatenate(([0.0], np.cumsum(eff_lvl)[:-1]))
    jump_volume = swept[1] * eff_lvl + swept[0] * nmm_lvl
    return np.array([jump_volume[level]
                     + np.clip(buys - depth_before[level], 0.0, eff_lvl[level]).sum()
                     for level in range(len(x))])


def _run_fast(cfg: SimConfig, book: BookShape, chunks) -> SimResult:
    """Score the draws chunk by chunk against the static book, adding up
    the probe statistics, the executed volume and the counters.  One kernel
    scan of each chunk's jumps fills the probes and counts the sweeps."""
    x, informed, noise = book.grid, book.informed, book.noise
    eff_lvl = book.per_level
    nmm_lvl = _nmm_level_split(eff_lvl, noise)
    stats = [np.zeros(len(x), dtype=dtype) for dtype in (np.int64, float, float) * 2]
    executed = np.zeros(len(x))
    tally = np.zeros(3, dtype=np.int64)
    for draws in chunks:
        buy = draws.noise_sign > 0
        swept = np.zeros((2, len(x)), dtype=np.int64)
        for total, part in zip(stats, kernels.accumulate_pnl(
                draws.is_jump, draws.it_wins, draws.jump_size, buy, draws.noise_mag,
                draws.drift, x, informed, noise, swept=swept)):
            total += part
        executed += _executed_volume(draws, x, eff_lvl, nmm_lvl, swept)
        tally += _tally(draws.is_jump, draws.it_wins, buy)
    summary = {
        **_summary_counts(cfg.n_events, *tally.tolist()),
        "executed_volume_per_level": executed.tolist(),
        "seed": cfg.seed,
    }
    return SimResult(pnl=_pnl_rows(*stats), summary=summary, book=book)


# ---------------------------------------------------------------------------
# Logged path: two-sided book on the absolute tick grid, MBO export
# ---------------------------------------------------------------------------

_SNAP = 1e-9
#: the efficient price at the start of a logged run
P0 = 100.0


def _event_times(params: ModelParams, n_events: int, rng: np.random.Generator) -> np.ndarray:
    """Event timestamps in ns: exponential gaps at the total event rate,
    rounded to whole ns and at least 1 ns apart.  ValueError if a gap or a
    timestamp does not fit in int64 ns (about 292 years)."""
    lam_i, lam_u = params.rates
    with np.errstate(over="ignore"):             # an infinite gap fails the check below
        gaps = np.maximum(1.0, np.round(rng.exponential(1.0 / (lam_i + lam_u), n_events) * 1e9))
    # each gap below 2**63 casts exactly, and a sum past 2**63 - 1 wraps negative first
    times = np.cumsum(gaps.astype(np.int64)) if np.all(gaps < 2.0**63) else None
    if times is None or np.any(times < 0):
        raise ValueError(f"n_events = {n_events} at lambda_i + lambda_u = {lam_i + lam_u} "
                         f"per second run past 2**63 ns of event time")
    return times


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


class _Queue(deque):
    """One maker's orders at one level, oldest first, as (order id, units)
    pairs, and their total units."""

    __slots__ = ("units",)

    def __init__(self):              # deque.__new__ made it empty
        self.units = 0


#: maker codes: the queue of each maker at a level, and its label
IMM, NMM = 0, 1
_MAKERS = ("IMM", "NMM")


class _LoggedRun:
    """Sequential bookkeeping run emitting the market-by-order log.

    The ask book and the mirrored bid book live on the absolute tick grid;
    after every event the touched side is brought back to the closed-form
    target volumes around the current efficient price (static-book
    replenishment, realised as whole-order cancels and adds in the log).
    A level holds one queue per maker.  ``_morph`` adds each maker's
    deficit at a level as one order at the back of its queue and cancels an
    excess from that maker's newest orders; ``_sweep`` fills from the
    front, oldest order id first across both queues.  So a level is in
    arrival order, and an informed order may wait behind a noise order.

    The price moves only at jumps and at nonzero noise drift, so its whole
    path, and with it every book the run will target, is computed before
    the event loop: state ``s`` is the price after the ``s``-th move.  The
    loop only moves orders and appends rows.  Between moves each side
    holds exactly its state's targets after every event, so the volume
    within a jump and the probe rows are read from the state tables, and
    after a noise sweep that does not move the price each maker's deficit
    at a walked level is what the sweep filled from that maker there:
    ``_refill`` re-adds the sweep's takes, level by level from near to
    far, informed before noise, and ``_morph`` runs only for new states.

    Each row's text is put together from parts made once: the timestamp
    once per event, each grid price once per index, and the head and tail
    of each row kind (:func:`lobeq.mbo.row_kind`) once per run.
    """

    def __init__(self, cfg: SimConfig, draws: EventDraws, times_ns: np.ndarray):
        self.cfg = cfg
        self.draws = draws
        self.times_ns = times_ns
        tick = cfg.params.tick

        # drift is zero at jump slots and when theta = 0; one running sum
        # adds the same floats in the same order as moving the price event
        # by event
        jump = draws.is_jump
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
        # the text of each grid price, rounded to keep it identical to its
        # CSV round-trip (a set, not np.unique, which would import numpy.ma)
        self.px = {i: mbo.float_text(round(i * tick, 12)) for i in set(idx.ravel().tolist())}
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

        # side -> grid index -> the (IMM, NMM) queues of the level
        self.levels: tuple[dict[int, tuple], dict[int, tuple]] = ({}, {})
        # row kinds by side: a maker's rows by maker code, an aggressor's by
        # its label
        kind = mbo.row_kind
        self._add = [[kind(ADD, side, -1, m) for m in _MAKERS] for side in (BID, ASK)]
        self._cancel = [[kind(CANCEL, side, -1, m) for m in _MAKERS] for side in (BID, ASK)]
        self._execute = [[kind(EXECUTE, side, 0, m) for m in _MAKERS] for side in (BID, ASK)]
        self._aggressor = [{label: (kind(ADD, side, -1, label), kind(EXECUTE, side, 1, label),
                                    kind(CANCEL, side, -1, label))
                            for label in ("IT", "NT")} for side in (BID, ASK)]
        # the log's text: each row is encoded as it is emitted, and the lines
        # are joined into blocks between events, so no string per row outlives
        # its block
        self.n_rows = 0
        self.executed_units = 0            # passive execute qty, a Python int
        self._lines: list[str] = []
        self._emit = mbo.row_encoder(self._lines.append)
        self._next_oid = itertools.count(1).__next__

    # -- replenishment ----------------------------------------------------------

    def _morph(self, ts: str, side: int, s: int) -> None:
        """Cancel/add whole orders until ``side`` matches the targets of
        the new state ``s``: levels outside its layout are cancelled in
        queue order, then each level is re-targeted near to far, informed
        before noise."""
        book, pxs, emit = self.levels[side], self.px, self._emit
        idxs = self.idx[s][side]
        lo, hi = (idxs[0], idxs[-1]) if side == ASK else (idxs[-1], idxs[0])
        cancel, add, retarget = self._cancel[side], self._add[side], self._retarget
        for idx in [i for i in book if not lo <= i <= hi]:
            px = pxs[idx]
            queues = book.pop(idx)
            for oid, m, qty in sorted((oid, m, qty) for m in (IMM, NMM)
                                      for oid, qty in queues[m]):
                emit(ts, oid, cancel[m], px, qty)
        for idx, want_imm, want_nmm in zip(idxs, self.imm[s][side], self.nmm[s][side]):
            queues = book.get(idx)
            if queues is None:
                queues = book[idx] = (_Queue(), _Queue())
            imm_q, nmm_q = queues
            if imm_q.units != want_imm:
                retarget(ts, imm_q, want_imm, cancel[IMM], add[IMM], pxs[idx])
            if nmm_q.units != want_nmm:
                retarget(ts, nmm_q, want_nmm, cancel[NMM], add[NMM], pxs[idx])

    def _refill(self, ts: str, side: int, taken: list) -> None:
        """Re-add what a sweep took from ``side`` at its state's targets:
        ``taken`` holds (grid index, IMM units, NMM units) per level the
        fills reached, near to far."""
        book, pxs = self.levels[side], self.px
        cancel, add, retarget = self._cancel[side], self._add[side], self._retarget
        for idx, took_imm, took_nmm in taken:
            imm_q, nmm_q = book[idx]
            if took_imm:
                retarget(ts, imm_q, imm_q.units + took_imm, cancel[IMM], add[IMM], pxs[idx])
            if took_nmm:
                retarget(ts, nmm_q, nmm_q.units + took_nmm, cancel[NMM], add[NMM], pxs[idx])

    def _retarget(self, ts: str, queue: _Queue, want: int, cancel: tuple, add: tuple,
                  px: str) -> None:
        """Bring one maker's ``queue`` at the level priced ``px`` to
        ``want`` units: cancel its newest orders while it holds more, then
        add what it lacks as one order at its back (row kinds ``cancel``
        and ``add``)."""
        excess = queue.units - want
        queue.units = want
        emit = self._emit
        while excess > 0:
            oid, qty = queue.pop()
            emit(ts, oid, cancel, px, qty)
            excess -= qty
        if excess < 0:
            oid = self._next_oid()
            queue.append((oid, -excess))
            emit(ts, oid, add, px, -excess)

    # -- aggressive executions ------------------------------------------------

    def _sweep(self, ts: str, side: int, idxs: list[int], budget: int,
               label: str, limit_idx: int | None = None) -> list:
        """Execute ``budget`` (> 0) units against ``side`` walking ``idxs``
        and return what the fills took: (grid index, IMM units, NMM units)
        for each level filled, near to far.

        The fill list is computed first, then the rows are emitted in feed
        order: aggressor add (at the grid price ``limit_idx``, by default
        the last level filled), execute pairs (passive row then the
        aggressor's mirror row), cancel of the unfilled remainder.
        """
        book, pxs = self.levels[side], self.px
        fills = []                      # (price text, oid, maker, qty)
        taken = []
        remaining = budget
        for idx in idxs:
            imm_q, nmm_q = book[idx]
            had_imm, had_nmm = imm_q.units, nmm_q.units
            px = pxs[idx]
            while imm_q or nmm_q:
                # the older front order, by order id
                if nmm_q and not (imm_q and imm_q[0] < nmm_q[0]):
                    m, queue = NMM, nmm_q
                else:
                    m, queue = IMM, imm_q
                oid, qty = queue[0]
                if qty > remaining:
                    queue[0] = (oid, qty - remaining)
                    qty = remaining
                else:
                    queue.popleft()
                queue.units -= qty
                fills.append((px, oid, m, qty))
                remaining -= qty
                if not remaining:
                    break
            if had_imm + had_nmm > imm_q.units + nmm_q.units:
                taken.append((idx, had_imm - imm_q.units, had_nmm - nmm_q.units))
            if not remaining:
                break

        emit = self._emit
        if limit_idx is None:
            limit_idx = taken[-1][0] if taken else idxs[0]
        limit_px = pxs[limit_idx]
        aggr_side = BID if side == ASK else ASK
        add_kind, execute_kind, cancel_kind = self._aggressor[aggr_side][label]
        execute = self._execute[side]
        aggr_oid = self._next_oid()
        emit(ts, aggr_oid, add_kind, limit_px, budget)
        for px, oid, m, qty in fills:
            emit(ts, oid, execute[m], px, qty)
            emit(ts, aggr_oid, execute_kind, px, qty)
        if remaining > 0:
            emit(ts, aggr_oid, cancel_kind, limit_px, remaining)
        self.executed_units += budget - remaining
        return taken

    # -- event handlers ---------------------------------------------------------

    def _handle_jump(self, ts: str, e: int, s: int, win: bool) -> None:
        swept = self.idx[s][ASK][:self.n_swept[e]]
        if not win:
            # the cancel beats the market order: informed quotes get away
            book, emit, cancel = self.levels[ASK], self._emit, self._cancel[ASK][IMM]
            for idx in swept:
                queue = book[idx][IMM]
                for oid, qty in queue:
                    emit(ts, oid, cancel, self.px[idx], qty)
                queue.clear()
                queue.units = 0
        if self.jump_volume[e] > 0:
            self._sweep(ts, ASK, swept, self.jump_volume[e], "IT", limit_idx=swept[-1])

    # -- main loop ---------------------------------------------------------------

    def _cut(self) -> str:
        """The lines emitted since the last block, joined into one block."""
        block = "".join(self._lines)
        self.n_rows += len(self._lines)
        self._lines.clear()
        return block

    def blocks(self):
        """Run the event loop, yielding the log's text a block at a time."""
        d = self.draws
        lines, layouts = self._lines, self.idx
        sweep, refill, morph = self._sweep, self._refill, self._morph
        scale = self.cfg.volume_scale
        morph("0", ASK, 0)
        morph("0", BID, 0)
        s = 0
        for e, (ts, is_jump, win, sign, mag, moves) in enumerate(zip(
                map(str, self.times_ns.tolist()), d.is_jump.tolist(), d.it_wins.tolist(),
                d.noise_sign.tolist(), d.noise_mag.tolist(), self.moves.tolist())):
            if is_jump:
                self._handle_jump(ts, e, s, win)
            else:
                side = ASK if sign > 0 else BID
                q_units = int(round(mag * scale))
                if q_units:
                    taken = sweep(ts, side, layouts[s][side], q_units, "NT")
                    if not moves:
                        refill(ts, side, taken)
            if moves:
                s += 1
                morph(ts, ASK, s)
                morph(ts, BID, s)
            if len(lines) >= mbo.BLOCK_ROWS:
                yield self._cut()
        if lines:
            yield self._cut()


def _run_logged(cfg: SimConfig, book: BookShape, draws: EventDraws,
                rng: np.random.Generator, log) -> SimResult:
    lr = _LoggedRun(cfg, draws, _event_times(cfg.params, cfg.n_events, rng))
    if log is None:
        text = list(lr.blocks())
    else:
        text = None
        mbo.write_csv(lr.blocks(), log)

    buy = draws.noise_sign > 0
    pnl = _pnl_rows(*kernels.accumulate_pnl(
        draws.is_jump, draws.it_wins, draws.jump_size, buy, draws.noise_mag, draws.drift,
        lr.probe_x, lr.probe_imm, lr.probe_nmm))
    summary = {
        **_summary_counts(cfg.n_events, *_tally(draws.is_jump, draws.it_wins, buy).tolist()),
        # a Python int: exact at any size, and what json.dump writes
        "executed_units_total": lr.executed_units,
        "n_mbo_rows": lr.n_rows,
        "seed": cfg.seed,
    }
    return SimResult(pnl=pnl, summary=summary, book=book, mbo_text=text)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def run(cfg: SimConfig, log=None) -> SimResult:
    """Run the event simulation; deterministic for a fixed seed.

    A ``record_log`` run given a ``log`` path writes its market-by-order log
    there through :func:`lobeq.mbo.write_csv`, a block at a time as the
    event loop cuts it, and returns no ``mbo_text``; without one it
    collects the blocks into ``mbo_text``."""
    if log is not None and not cfg.record_log:
        raise ValueError("a log path needs record_log=True")
    book = _resolve_book(cfg)
    rng = np.random.default_rng(cfg.seed)
    if cfg.record_log:
        return _run_logged(cfg, book, draw_events(cfg.params, cfg.n_events, rng), rng, log)
    return _run_fast(cfg, book, _draw_chunks(cfg.params, cfg.n_events, rng, CHUNK_EVENTS))


def export_mbo(result: SimResult) -> EventLog:
    """Market-by-order log of a ``record_log=True`` run (ground-truth
    participant labels included): :func:`lobeq.mbo.parse` of its text."""
    if result.mbo_text is None:
        raise ValueError("run was executed without record_log=True")
    # bytes behind a text reader: a StringIO of the text would hold four
    # bytes per character
    text = b"".join(block.encode() for block in (mbo.HEADER_LINE, *result.mbo_text))
    return mbo.parse(io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline=""))

