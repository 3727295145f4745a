"""Per-event logged simulator: the test oracle of the logged path of
``lobeq.simulator``.

This is the bookkeeping loop as it ran before the logged path precomputed
its price path and book targets: the book's layout and closed-form
targets are recomputed with numpy at every morph (curves cached per price
between moves), every side is morphed level by level, and each MBO row is
built as an ``EventLog.Row``, which the csv-module writer of
``tests/mbo_oracle.py`` turns into the text the logged run must write.
``run`` replays ``lobeq.simulator.run`` for a ``record_log`` config with
it, on the same draws (``draw_events``, the whole run as one chunk) and
timestamps (``event_times``, drawn whole after the draws).  It also
keeps a ``SimEvent`` per event with the fills it caused, from which its
``executed_units_total`` is summed independently of the log, and the best
quotes its own book shows after each event, which the replay of the log
must reproduce.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from mbo_oracle import dumps

from lobeq.equilibrium import book_curves, shape_tick
from lobeq.kernels import accumulate_pnl
from lobeq.mbo import EventLog
from lobeq.simulator import P0, EventDraws, SimConfig, SimResult, _result, draw_events


def event_times(params, n_events: int, rng: np.random.Generator) -> np.ndarray:
    """Event timestamps in ns, drawn whole: exponential gaps at the total
    event rate, rounded to whole ns and at least 1 ns apart.  ValueError if
    a gap or a timestamp does not fit in int64 ns (about 292 years)."""
    lam_i, lam_u = params.rates
    with np.errstate(over="ignore"):             # an infinite gap fails the check below
        gaps = np.maximum(1.0, np.round(rng.exponential(1.0 / (lam_i + lam_u), n_events) * 1e9))
    # each gap below 2**63 casts exactly, and a sum past 2**63 - 1 wraps negative first
    times = np.cumsum(gaps.astype(np.int64)) if np.all(gaps < 2.0**63) else None
    if times is None or np.any(times < 0):
        raise ValueError(f"n_events = {n_events} at lambda_i + lambda_u = {lam_i + lam_u} "
                         f"per second run past 2**63 ns of event time")
    return times


@dataclass(frozen=True)
class SimEvent:
    """One event of a logged run."""

    t_ns: int
    kind: str                      # "jump" | "noise"
    side: int                      # +1 toward the ask book, -1 toward the bid
    size: float                    # jump magnitude or |volume|
    race_won_by: str | None        # "IT" | "IMM" for jumps
    executed_per_level: tuple      # ((side, grid index, qty units), ...)


def _nmm_level_split(eff_lvl, noise_cum) -> list:
    """Per-level noise-maker quantity: front-load noise depth to match its
    cumulative curve without exceeding the visible level sizes (the noise
    curve need not be pointwise flatter level by level).

    Plain Python integers (volume units) in and out.
    """
    out = []
    placed = 0
    for level, cum in zip(eff_lvl, noise_cum):
        want = cum - placed
        take = 0 if want <= 0 else min(level, want)
        out.append(take)
        placed += take
    return out


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
        self.cfg = cfg
        self.p = cfg.params
        self.draws = draws
        self.scale = cfg.volume_scale
        self.tick = cfg.params.tick
        self.price = P0
        self.rows: list[EventLog.Row] = []
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
        self.rows.append(EventLog.Row(
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



def run(cfg: SimConfig) -> tuple[SimResult, str, _LoggedRun]:
    """``lobeq.simulator.run(cfg, log=...)`` for a ``record_log`` config,
    the text it writes to its log, and the finished oracle run (its probe
    arrays, its events and its best-quote snapshots, one after the initial
    book and one after each event).  The probe statistics are summed over
    the whole run at once."""
    rng = np.random.default_rng(cfg.seed)
    draws = draw_events(cfg.params, cfg.n_events, rng)
    times_ns = event_times(cfg.params, cfg.n_events, rng)
    lr = _LoggedRun(cfg, draws)
    lr.run_all(times_ns)

    jump, buy = draws.is_jump, draws.noise_sign > 0
    totals = [*accumulate_pnl(jump, draws.it_wins, draws.jump_size, buy, draws.noise_mag,
                              draws.drift, lr.probe_x, lr.probe_imm, lr.probe_nmm),
              np.array([np.count_nonzero(jump), np.count_nonzero(jump & draws.it_wins),
                        np.count_nonzero(buy)])]
    executed_units = sum(
        q for ev in lr.events for (_side, _idx, q) in ev.executed_per_level
    )
    result = _result(cfg, shape_tick(cfg.params, cfg.n_levels), totals,
                     executed_units_total=executed_units, n_mbo_rows=len(lr.rows))
    return result, dumps(lr.rows), lr
