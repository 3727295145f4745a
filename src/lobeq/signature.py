"""Trade signatures and participant clustering over replayed event logs.

The signature of a trade cohort at horizon ``k`` is its volume-normalized
P&L against a reference price series read ``k`` later::

    ST(k) = eps * sum_t Q_t * (X_{t+k} - P_t) / sum_t |Q_t|

with ``Q_t`` signed by the liquidity taker (positive = buyer-initiated),
``eps = +1`` for the aggressive side and ``-1`` for the passive side.
Informed cohorts should drift positive with the horizon, uninformed ones
stay negative: everybody starts by paying the spread.

The reference series is piecewise constant and evaluated as its left
limit, i.e. the value prevailing when ``t + k`` arrives; at ``k = 0`` a
trade therefore sees the quote it actually crossed, not the post-trade
state stamped at the same nanosecond.

Clustering works on order-lifecycle metrics.  Cluster 0 is always the
most-informed bucket: durations below the first threshold for the time
metrics, values above the last threshold for volume ratio and update
count.  Records whose metric has no predecessor (first trade of a file,
first add at a level) land in the distinguished bucket ``-1`` and are
excluded from signatures.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .mbo import Replay

__all__ = [
    "REFERENCES",
    "METRICS",
    "micro_price",
    "mid_price",
    "QuoteError",
    "QuoteSeries",
    "TradeRecord",
    "build_trade_records",
    "ClusterSpec",
    "classify",
    "trade_signature",
    "SignatureCurve",
    "signature_curves",
]

REFERENCES = ("micro", "mid", "touched")

#: metric -> (record attribute, side, ascending informedness order?)
METRICS = {
    "trade_to_add": ("trade_to_add_ns", "passive", True),
    "add_to_add": ("add_to_add_ns", "passive", True),
    "update_count": ("update_count", "passive", False),
    "trade_to_trade": ("trade_to_trade_ns", "aggressive", True),
    "volume_ratio": ("volume_ratio", "aggressive", False),
}

UNDEFINED_CLUSTER = -1


class QuoteError(ValueError):
    """A quote check failed; ``index`` is the first failing element."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _raise_first(checks, shape) -> None:
    """Raise :class:`QuoteError` for the first element (in C order) of an
    array of ``shape`` failing one of ``checks``, ``(failed mask, message(i))``
    pairs in the order a per-element loop tests them."""
    failed = np.array([np.broadcast_to(mask, shape).ravel() for mask, _ in checks])
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        i = int(bad[0])
        raise QuoteError(i, checks[int(np.argmax(failed[:, i]))][1](i))


def micro_price(bid, ask, v_b, v_a, checks=()):
    """Queue-imbalance weighted quote, elementwise: pulled toward the thinner
    side.  ``checks`` come first, e.g. a caller's lookup checks."""
    bid, ask, v_b, v_a = np.broadcast_arrays(bid, ask, v_b, v_a)
    _raise_first([*checks, (~(bid < ask), lambda i: "micro price needs bid < ask, "
                                                    f"got {bid.flat[i]} >= {ask.flat[i]}"),
                  ((v_b < 0) | (v_a < 0), lambda i: "queue volumes must be nonnegative"),
                  ((v_b == 0) & (v_a == 0),
                   lambda i: "micro price undefined with both queues empty")], bid.shape)
    return (bid * v_a + ask * v_b) / (v_a + v_b)


def mid_price(bid, ask, checks=()):
    """Midpoint of the quotes, elementwise; ``checks`` as for :func:`micro_price`."""
    bid, ask = np.broadcast_arrays(bid, ask)
    _raise_first([*checks, (~(bid < ask), lambda i: "mid price needs bid < ask, got "
                                                    f"{bid.flat[i]} >= {ask.flat[i]}")], bid.shape)
    return 0.5 * (bid + ask)


# ---------------------------------------------------------------------------
# Reference series
# ---------------------------------------------------------------------------


class QuoteSeries:
    """Best-quote snapshots indexed by timestamp, left-limit evaluated."""

    def __init__(self, ts, bid, ask, bid_qty, ask_qty):
        self.ts = np.asarray(ts, dtype=np.int64)
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("snapshot timestamps must be strictly increasing")
        self.bid = np.array([np.nan if b is None else b for b in bid], dtype=float)
        self.ask = np.array([np.nan if a is None else a for a in ask], dtype=float)
        self.bid_qty = np.asarray(bid_qty, dtype=float)
        self.ask_qty = np.asarray(ask_qty, dtype=float)

    @classmethod
    def from_replay(cls, replay: Replay) -> "QuoteSeries":
        return cls(replay.quote_ts, replay.quote_bid, replay.quote_ask,
                   replay.quote_bid_qty, replay.quote_ask_qty)

    def index_before(self, t_ns):
        """Index of the snapshot prevailing at each ``t_ns`` (strictly before)."""
        return np.searchsorted(self.ts, t_ns, side="left") - 1

    def reference(self, t_ns, kind: str, trade_qty=0) -> np.ndarray:
        """Reference price ``kind`` prevailing at each time of ``t_ns``.

        ``trade_qty`` (signed by the taker, broadcast against ``t_ns``)
        picks the touched side: the ask for a buy, else the bid.  A failed
        lookup raises :class:`QuoteError` naming the first failing element.
        """
        t = np.atleast_1d(np.asarray(t_ns, dtype=np.int64))
        idx = self.index_before(t)
        bid, ask = self.bid[idx], self.ask[idx]     # idx = -1 fails the first check
        checks = [(idx < 0, lambda i: f"no reference snapshot before t = {t[i]}"),
                  (kind not in REFERENCES,
                   lambda i: f"unknown reference {kind!r}; expected one of {REFERENCES}")]
        if kind == "touched":
            quote = np.where(np.asarray(trade_qty) > 0, ask, bid)
            _raise_first([*checks, (np.isnan(quote),
                                    lambda i: f"touched quote missing at t = {t[i]}")], t.shape)
            return quote
        checks.append((np.isnan(bid) | np.isnan(ask),
                       lambda i: f"one-sided book at t = {t[i]}: {kind} undefined"))
        if kind == "mid":
            return mid_price(bid, ask, checks)
        return micro_price(bid, ask, self.bid_qty[idx], self.ask_qty[idx], checks)


# ---------------------------------------------------------------------------
# Trade records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TradeRecord:
    """One execution with its clustering inputs.

    ``qty`` is signed by the liquidity taker.  Sweep-level metrics
    (trade-to-trade duration, volume ratio at the touched best limit) are
    shared by every fill of the sweep; passive metrics come from the
    resting order's lifecycle.  ``None`` marks an undefined metric.
    """

    t_ns: int
    qty: int
    price: float
    order_id: int
    participant_label: str | None
    aggressor: bool
    trade_to_trade_ns: int | None = None
    volume_ratio: float | None = None
    trade_to_add_ns: int | None = None
    add_to_add_ns: int | None = None
    update_count: int | None = None


def build_trade_records(replay: Replay) -> tuple[list[TradeRecord], list[TradeRecord]]:
    """(aggressive records, passive records) from a replayed log.

    Aggressive fills are grouped into sweeps by their order id; the
    volume ratio compares the quantity executed at the pre-trade best
    quote of the swept side with the quantity that was resting there.
    """
    quotes = QuoteSeries.from_replay(replay)
    fill_ts = [f.ts_ns for f in replay.fills]

    # adds per (side, price), feed order; timestamps are nondecreasing
    adds: dict[tuple, list[int]] = {}
    for ts, side, price in replay.add_events:
        adds.setdefault((side, price), []).append(ts)

    def since_last_trade(ts: int) -> int | None:
        idx = bisect_left(fill_ts, ts) - 1
        return ts - fill_ts[idx] if idx >= 0 else None

    aggressive: list[TradeRecord] = []
    for _oid, fills in groupby((f for f in replay.fills if f.aggressor),
                               key=lambda f: f.order_id):
        sweep = list(fills)
        first = sweep[0]
        sign = 1 if first.side == "bid" else -1     # buy sweeps rest on the bid side
        ttt = since_last_trade(first.ts_ns)
        ratio = None
        idx = quotes.index_before(first.ts_ns)
        if idx >= 0:
            best = quotes.ask[idx] if sign > 0 else quotes.bid[idx]
            avail = quotes.ask_qty[idx] if sign > 0 else quotes.bid_qty[idx]
            if not np.isnan(best) and avail > 0:
                at_best = sum(f.qty for f in sweep if f.price == best)
                if at_best > 0:
                    ratio = min(1.0, at_best / avail)
        for f in sweep:
            aggressive.append(TradeRecord(
                t_ns=f.ts_ns, qty=sign * f.qty, price=f.price,
                order_id=f.order_id, participant_label=f.participant_label,
                aggressor=True, trade_to_trade_ns=ttt, volume_ratio=ratio,
            ))

    passive: list[TradeRecord] = []
    for lc in replay.all_lifecycles:
        executed = [f for f in lc.fills if not f.aggressor]
        if not executed:
            continue
        tta = since_last_trade(lc.add_ts)
        level_adds = adds.get((lc.side, lc.add_price), [])
        idx = bisect_left(level_adds, lc.add_ts) - 1
        ata = lc.add_ts - level_adds[idx] if idx >= 0 else None
        sign = 1 if lc.side == "ask" else -1        # ask fills are buyer-initiated
        for f in executed:
            passive.append(TradeRecord(
                t_ns=f.ts_ns, qty=sign * f.qty, price=f.price,
                order_id=lc.order_id, participant_label=lc.participant_label,
                aggressor=False, trade_to_add_ns=tta, add_to_add_ns=ata,
                update_count=lc.n_updates,
            ))
    return aggressive, passive


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterSpec:
    """Thresholds th_1 < ... < th_{n-1} splitting records into n buckets."""

    metric: str
    thresholds: tuple
    side: str

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of {sorted(METRICS)}")
        attr, side, _asc = METRICS[self.metric]
        if self.side not in ("passive", "aggressive"):
            raise ValueError("side must be 'passive' or 'aggressive'")
        if self.side != side:
            raise ValueError(f"metric {self.metric!r} applies to the {side} side")
        th = tuple(float(t) for t in self.thresholds)
        if not th:
            raise ValueError("at least one threshold is required")
        if not (np.all(np.isfinite(th)) and np.all(np.diff(th) > 0)):
            raise ValueError(f"thresholds must be finite and strictly increasing, got {th}")
        object.__setattr__(self, "thresholds", th)


def classify(records: list[TradeRecord], spec: ClusterSpec) -> np.ndarray:
    """Cluster index per record; -1 for records with an undefined metric.

    Time metrics: cluster = number of thresholds at or below the value,
    so the fastest records land in cluster 0.  Volume ratio and update
    count are reversed: cluster = number of thresholds at or above the
    value, so depleting trades / heavily updated orders land in cluster 0.
    """
    attr, _side, ascending = METRICS[spec.metric]
    values = np.array([getattr(rec, attr) for rec in records], dtype=float)    # None -> nan
    th = np.array(spec.thresholds)
    out = (np.searchsorted(th, values, side="right") if ascending
           else th.size - np.searchsorted(th, values, side="left"))
    return np.where(np.isnan(values), UNDEFINED_CLUSTER, out).astype(np.int32)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def trade_signature(records: list[TradeRecord], k_ns: int, eps: int,
                    reference: str, quotes: QuoteSeries) -> float:
    """ST(k) of one cohort; ``eps`` is +1 (aggressive) or -1 (passive)."""
    if not records:
        raise ValueError("trade_signature needs a nonempty record list")
    return signature_curves(records, [0] * len(records), (k_ns,), eps, reference,
                            quotes).values[0][0]


@dataclass
class SignatureCurve:
    horizons_ns: tuple
    cluster_ids: tuple
    values: dict        # cluster id -> tuple of ST(k) along horizons
    counts: dict        # cluster id -> number of trades (horizon-independent)


def signature_curves(records: list[TradeRecord], clusters: np.ndarray,
                     horizons_ns, eps: int, reference: str,
                     quotes: QuoteSeries) -> SignatureCurve:
    """ST(k) per cluster along the horizon grid (undefined bucket dropped);
    ``np.bincount`` sums each cluster in record order, as a loop would."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    horizons_ns = tuple(int(k) for k in horizons_ns)
    clusters = np.asarray(clusters)
    cohort = [records[i] for i in np.flatnonzero(clusters != UNDEFINED_CLUSTER)]
    ids, labels, counts = np.unique(clusters[clusters != UNDEFINED_CLUSTER],
                                    return_inverse=True, return_counts=True)
    t = np.array([rec.t_ns for rec in cohort], dtype=np.int64)
    qty = np.array([rec.qty for rec in cohort], dtype=float)
    price = np.array([rec.price for rec in cohort], dtype=float)
    den = np.bincount(labels, weights=np.abs(qty), minlength=ids.size)
    st = np.empty((ids.size, len(horizons_ns)))
    for h, k_ns in enumerate(horizons_ns):
        try:
            x = quotes.reference(t + k_ns, reference, qty)
        except QuoteError as exc:
            rec = cohort[exc.index]
            raise ValueError(f"reference lookup failed for trade of order {rec.order_id} "
                             f"at t = {rec.t_ns} + k = {k_ns}: {exc}") from None
        st[:, h] = eps * np.bincount(labels, weights=qty * (x - price), minlength=ids.size) / den
    ids = ids.tolist()
    return SignatureCurve(horizons_ns=horizons_ns, cluster_ids=tuple(ids),
                          values=dict(zip(ids, map(tuple, st.tolist()))),
                          counts=dict(zip(ids, counts.tolist())))
