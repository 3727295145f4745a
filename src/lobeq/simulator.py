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

Both paths draw the events in chunks of :data:`CHUNK_EVENTS` from one
drawer, :func:`_draw_chunks`, so their memory does not grow with
``n_events``: each random input reads its own part of the stream with a
generator of its own, so the draws are those of :func:`draw_events`.
Each chunk is scored in one step, the kernel
:func:`lobeq.kernels.accumulate_pnl` and the event counts, and the
per-level sums are added chunk by chunk (their last digits depend on
:data:`CHUNK_EVENTS`).  The no-log path scores against the static book,
closed-form on the tick grid or a user-supplied :class:`BookShape`; one
kernel scan of a chunk's jumps fills both makers' probes and counts the
levels each jump sweeps, the one count the executed volume is priced from.

``record_log=True`` switches to a bookkeeping loop that keeps a two-sided
order book on the absolute tick grid and writes a market-by-order log
with ground-truth participant labels to a ``log`` path.  The price moves
only at jumps and at nonzero noise drift, so a chunk's price path and the
integer targets of its book states (one ``book_curves`` call for all of
them and both sides) are computed before its loop, which only moves
orders and writes each row through :func:`lobeq.mbo.row_encoder`.  The
ask book each event met is read from the same state tables and scored.

:class:`SimConfig` rejects a combination neither path can run before any
draw is made.  A logged run checks each chunk before writing any of its
rows, and raises ``ValueError`` at the first chunk with an event time past
int64 ns, a volume too large for ``volume_scale``, a price off the finite
grid or an unbounded state book, after the earlier chunks' rows.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels
from .equilibrium import BookShape, ModelParams, book_curves, shape_tick
from . import mbo
from .mbo import ADD, ASK, BID, CANCEL, EXECUTE

__all__ = [
    "SimConfig",
    "LevelPnl",
    "SimResult",
    "EventDraws",
    "draw_events",
    "run",
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
        for name in ("n_events", "seed", "n_levels", "volume_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


#: events drawn and scored at a time, so that a run's memory does not grow
#: with ``n_events``
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
    realized event kinds.  :func:`run` reads the same draws chunk by chunk;
    either way ``rng`` is left at the end of the stream, and its bit
    generator must have ``advance`` (numpy's default PCG64 has it).
    """
    (draws,) = _draw_chunks(params, n_events, rng, max(n_events, 1))
    return draws


def _time_stream(params: ModelParams, n_events: int, rng: np.random.Generator):
    """A copy of ``rng`` moved past the stream :func:`_draw_chunks` reads,
    to a logged run's event times: the sign chain is one uniform for its
    first sign and one per noise event, which a pass over the kinds counts."""
    g = copy.deepcopy(rng)
    n_noise = sum(int(np.count_nonzero(g.random(min(CHUNK_EVENTS, n_events - begin)) >= params.r))
                  for begin in range(0, n_events, CHUNK_EVENTS))
    for law in (params.jump, None, params.volume):
        _skip(g, n_events, law)
    g.bit_generator.advance(1 + n_noise)
    return g


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


def _totals(m: int) -> list:
    """Zero totals for ``m`` levels: the six per-level sums of
    :func:`lobeq.kernels.accumulate_pnl`, then the jump, won-race and buy counts."""
    return [np.zeros(m, dtype=dtype) for dtype in (np.int64, float, float) * 2] + [
        np.zeros(3, dtype=np.int64)]


def _score(totals: list, draws: EventDraws, x, informed, noise, swept=None) -> None:
    """Add a chunk's probe fills against the book its events met (a static
    ``(m,)`` book, or ``(k, m)`` rows, one per event) and its counts to
    ``totals``; ``swept`` as for :func:`lobeq.kernels.accumulate_pnl`."""
    jump, wins, buy = draws.is_jump, draws.it_wins, draws.noise_sign > 0
    parts = kernels.accumulate_pnl(jump, wins, draws.jump_size, buy, draws.noise_mag,
                                   draws.drift, x, informed, noise, swept=swept)
    counts = np.count_nonzero(jump), np.count_nonzero(jump & wins), np.count_nonzero(buy)
    for total, part in zip(totals, (*parts, counts)):
        total += part


def _result(cfg: SimConfig, book: BookShape, totals: list, **extra) -> SimResult:
    """The result of a run from its totals; the summary holds the counts,
    then ``extra``, then the seed."""
    n_jumps, n_wins, n_buys = totals[6].tolist()
    summary = {"n_events": cfg.n_events, "n_jumps": n_jumps, "n_it_wins": n_wins,
               "n_noise_buys": n_buys, "empirical_r": n_jumps / cfg.n_events,
               "empirical_f": n_wins / n_jumps if n_jumps else math.nan, **extra,
               "seed": cfg.seed}
    return SimResult(pnl=_pnl_rows(*totals[:6]), summary=summary, book=book)


def _run_fast(cfg: SimConfig, book: BookShape, chunks) -> SimResult:
    """Score the draws chunk by chunk against the static book, adding up
    the probe statistics, the executed volume and the counters.  One kernel
    scan of each chunk's jumps fills the probes and counts the sweeps."""
    x, informed, noise = book.grid, book.informed, book.noise
    eff_lvl = book.per_level
    nmm_lvl = _nmm_level_split(eff_lvl, noise)
    totals = _totals(len(x))
    executed = np.zeros(len(x))
    for draws in chunks:
        swept = np.zeros((2, len(x)), dtype=np.int64)
        _score(totals, draws, x, informed, noise, swept)
        executed += _executed_volume(draws, x, eff_lvl, nmm_lvl, swept)
    return _result(cfg, book, totals, executed_volume_per_level=executed.tolist())


# ---------------------------------------------------------------------------
# Logged path: two-sided book on the absolute tick grid, MBO export
# ---------------------------------------------------------------------------

_SNAP = 1e-9
#: the efficient price at the start of a logged run
P0 = 100.0


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

    The price moves only at jumps and at nonzero noise drift, so
    :meth:`_load` computes a chunk's price path, and with it every book the
    chunk will target, before the chunk's loop: state ``s`` is the price
    after the chunk's ``s``-th move, state 0 the one it starts from.  Only
    the last price, the book, the order-id counter and the last event time
    carry across chunks.  The loop only moves orders and appends rows.
    Between moves each side holds exactly its state's targets after every
    event, so the volume within a jump and the probe rows are read from the
    state tables, and after a noise sweep that does not move the price each
    maker's deficit at a walked level is what the sweep filled from that
    maker there: ``_refill`` re-adds the sweep's takes, level by level from
    near to far, informed before noise, and ``_morph`` runs only for new
    states.

    Each row's text is put together from parts made once: the timestamp
    once per event, each grid price once per index and chunk, and the head
    and tail of each row kind (:func:`lobeq.mbo.row_kind`) once per run.
    """

    def __init__(self, cfg: SimConfig, chunks, clock: np.random.Generator):
        self.cfg = cfg
        self.chunks = chunks
        self.clock = clock
        self.price, self.t_ns = P0, 0             # the last price and event time
        self.totals = _totals(cfg.n_levels)

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

    def _load(self, draws: EventDraws) -> None:
        """Make the tables of the chunk ``draws``: its event times
        (exponential gaps at the total event rate, in whole ns, at least 1
        ns apart), its states' layouts and targets, and its probe rows."""
        # drop the last chunk's tables first, so two chunks' never coexist
        self.idx = self.imm = self.nmm = self.px = self.probe_x = self.probe_imm = None
        self.probe_nmm = self.n_swept = self.jump_volume = None
        cfg, tick = self.cfg, self.cfg.params.tick
        lam_i, lam_u = cfg.params.rates
        with np.errstate(over="ignore"):         # an infinite gap fails the check below
            gaps = np.maximum(1.0, np.round(
                self.clock.exponential(1.0 / (lam_i + lam_u), len(draws.is_jump)) * 1e9))
        # each gap below 2**63 casts exactly, and a sum past 2**63 - 1 wraps negative first
        times = np.cumsum(gaps.astype(np.int64)) + self.t_ns if np.all(gaps < 2.0**63) else None
        if times is None or np.any(times < 0):
            raise ValueError(f"n_events = {cfg.n_events} at lambda_i + lambda_u = "
                             f"{lam_i + lam_u} per second run past 2**63 ns of event time")
        self.times_ns, self.t_ns = times, int(times[-1])

        # drift is zero at jump slots and when theta = 0; one running sum
        # from the last price adds the same floats in the same order as
        # moving the price event by event
        jump = draws.is_jump
        self.moves = jump | (draws.drift != 0.0)
        steps = np.where(jump, draws.jump_size, draws.drift)[self.moves]
        with np.errstate(over="ignore", invalid="ignore"):   # _grid_layout rejects the overflow
            price = np.cumsum(np.concatenate(([self.price], steps)))
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
        self.price = price[-1]

        # per state and side, near to far: grid index, informed and noise units
        self.idx = idx.tolist()
        self.imm = (lvl - nmm).tolist()
        self.nmm = nmm.tolist()
        # the text of each grid price, rounded to keep it identical to its
        # CSV round-trip (a set, not np.unique, which would import numpy.ma)
        self.px = {i: mbo.float_text(round(i * tick, 12)) for i in set(idx.ravel().tolist())}
        # the state each event met
        before = np.concatenate(([0], np.cumsum(self.moves)[:-1]))

        # the ask book each event met, scored by the probe kernel after the
        # chunk, which reads the level distances only at jumps and noise buys
        # and the queue depths only at buys
        self.probe_x = dist[before, ASK]
        self.probe_imm = informed[before, ASK]
        self.probe_nmm = noise[before, ASK]
        # a jump of size b sweeps the ask levels at distance <= b, a prefix
        within = self.probe_x <= draws.jump_size[:, None]
        self.n_swept = within.sum(axis=1).tolist()
        self.jump_volume = np.where(within, lvl[before, ASK], 0).sum(axis=1).tolist()

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
        """Run the event loop chunk by chunk, yielding the log's text a
        block at a time, and score each chunk once its loop is done."""
        lines, sweep, refill, morph = self._lines, self._sweep, self._refill, self._morph
        scale = self.cfg.volume_scale
        for n, draws in enumerate(self.chunks):
            self._load(draws)
            if n == 0:
                morph("0", ASK, 0)
                morph("0", BID, 0)
            s = 0
            for e, (ts, is_jump, win, sign, mag, moves) in enumerate(zip(
                    map(str, self.times_ns.tolist()), draws.is_jump.tolist(),
                    draws.it_wins.tolist(), draws.noise_sign.tolist(), draws.noise_mag.tolist(),
                    self.moves.tolist())):
                if is_jump:
                    self._handle_jump(ts, e, s, win)
                else:
                    side = ASK if sign > 0 else BID
                    q_units = int(round(mag * scale))
                    if q_units:
                        taken = sweep(ts, side, self.idx[s][side], q_units, "NT")
                        if not moves:
                            refill(ts, side, taken)
                if moves:
                    s += 1
                    morph(ts, ASK, s)
                    morph(ts, BID, s)
                if len(lines) >= mbo.BLOCK_ROWS:
                    yield self._cut()
            _score(self.totals, draws, self.probe_x, self.probe_imm, self.probe_nmm)
        if lines:
            yield self._cut()


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def run(cfg: SimConfig, log=None) -> SimResult:
    """Run the event simulation; deterministic for a fixed seed.

    A ``record_log`` run needs a ``log`` path, and writes its
    market-by-order log there through :func:`lobeq.mbo.write_csv`, a block
    at a time as the event loop cuts it; a run without ``record_log``
    takes no ``log``.  A logged run raises the errors its draws can cause
    at the chunk that meets them (see the module docstring)."""
    if cfg.record_log == (log is None):
        raise ValueError("record_log=True needs a log path" if cfg.record_log
                         else "a log path needs record_log=True")
    book = _resolve_book(cfg)
    rng = np.random.default_rng(cfg.seed)
    chunks = _draw_chunks(cfg.params, cfg.n_events, rng, CHUNK_EVENTS)
    if not cfg.record_log:
        return _run_fast(cfg, book, chunks)
    # _draw_chunks draws nothing until iterated: the clock is copied from
    # rng at the stream's start
    lr = _LoggedRun(cfg, chunks, _time_stream(cfg.params, cfg.n_events, rng))
    mbo.write_csv(lr.blocks(), log)
    # a Python int: exact at any size, and what json.dump writes
    return _result(cfg, book, lr.totals, executed_units_total=lr.executed_units,
                   n_mbo_rows=lr.n_rows)
