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
count.  Trades whose metric has no predecessor (first trade of a file,
first add at a level) land in the distinguished bucket ``-1`` and are
excluded from signatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mbo import BID, Quotes, Replay, Table

__all__ = [
    "REFERENCES",
    "METRICS",
    "micro_price",
    "mid_price",
    "QuoteError",
    "QuoteSeries",
    "TradeTable",
    "build_trade_records",
    "ClusterSpec",
    "classify",
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


class QuoteSeries(Quotes):
    """Best quotes indexed by timestamp, left-limit evaluated: the
    :class:`~lobeq.mbo.Quotes` columns (an empty side's None reads as nan)
    with strictly increasing timestamps."""

    def _check(self) -> None:
        if np.any(self.ts_ns[1:] <= self.ts_ns[:-1]):       # np.diff of int64 may wrap
            raise ValueError("snapshot timestamps must be strictly increasing")

    @classmethod
    def from_replay(cls, replay: Replay) -> "QuoteSeries":
        """The replay's quote columns, shared, not copied."""
        return cls(*replay.quotes.columns())

    def reference(self, t_ns, kind: str, trade_qty=0) -> np.ndarray:
        """Reference price ``kind`` prevailing at each time of ``t_ns``.

        ``trade_qty`` (signed by the taker, broadcast against ``t_ns``)
        picks the touched side: the ask for a buy, else the bid.  A failed
        lookup raises :class:`QuoteError` naming the first failing element.
        """
        t = np.atleast_1d(np.asarray(t_ns, dtype=np.int64))
        idx = np.searchsorted(self.ts_ns, t, side="left") - 1   # the snapshot strictly before
        checks = [(idx < 0, lambda i: f"no reference snapshot before t = {t[i]}"),
                  (kind not in REFERENCES,
                   lambda i: f"unknown reference {kind!r}; expected one of {REFERENCES}")]
        if not self.ts_ns.size:                     # nothing to read: every element fails
            _raise_first(checks, t.shape)
        bid, ask = self.bid[idx], self.ask[idx]     # idx = -1 fails the first check
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
# Trade tables
# ---------------------------------------------------------------------------

class TradeTable(Table):
    """Executions of one side, one row each.

    ``qty`` is signed by the liquidity taker, and a metric is nan where it
    is undefined.  The fills of a sweep share its trade-to-trade duration
    and volume ratio at the touched best limit; passive metrics come from
    the resting order's lifecycle.
    """

    COLUMNS = {"t_ns": np.int64, "order_id": np.int64, "qty": np.int64, "price": np.float64,
               "participant_label": object,
               **{attr: np.float64 for attr, _, _ in METRICS.values()}}


def _run_starts(*keys) -> np.ndarray:
    """True where a row begins a run of rows equal in every key."""
    start = np.ones(len(keys[0]), dtype=bool)
    start[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return start


def _elapsed(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``later - earlier`` in float for int64 ns times with ``later >=
    earlier``: the true difference lies in [0, 2**64), where the uint64
    views subtract exactly and the int64 ones wrap past 2**63."""
    return (later.view(np.uint64) - earlier.view(np.uint64)).astype(float)


def _since_last(times: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``t`` minus the last of the sorted ``times`` strictly before it (nan if none)."""
    i = np.searchsorted(times, t, side="left") - 1
    return np.where(i >= 0, _elapsed(t, times[np.maximum(i, 0)]), np.nan)


def _add_to_add(ts: np.ndarray, bid: np.ndarray, price: np.ndarray) -> np.ndarray:
    """Each add time minus the last earlier add time at its (side, price)
    level, nan for the first add at a level."""
    order = np.lexsort((ts, price, bid))                    # by level, then time
    ts, bid, price = ts[order], bid[order], price[order]
    # the row before each run of one level and time: the level's last earlier add, if any
    prev = np.maximum.accumulate(np.where(_run_starts(bid, price, ts), np.arange(ts.size), 0)) - 1
    same = (prev >= 0) & (bid[prev] == bid) & (price[prev] == price)
    out = np.empty(ts.size)
    out[order] = np.where(same, _elapsed(ts, ts[prev]), np.nan)
    return out


def build_trade_records(replay: Replay) -> tuple[TradeTable, TradeTable]:
    """(aggressive, passive) trade tables from a replayed log, read against
    its quotes.

    Aggressive rows follow the feed; a sweep is a run of consecutive fills
    of one order id, and the volume ratio compares the quantity it executed
    at the pre-trade best quote of the swept side with the quantity that
    was resting there.  Passive rows are grouped by resting order, in add
    order, each in fill order.
    """
    fills, lcs, quotes = replay.fills, replay.lifecycles, replay.quotes
    ts, qty, price, aggressor = fills.ts_ns, fills.qty, fills.price, fills.aggressor
    # the executed order's id, side and label, from its lifecycle
    oid, bid, label = (col[fills.lifecycle] for col in (lcs.order_id, lcs.side == BID,
                                                        lcs.participant_label))

    def table(rows, sign, **metrics):
        undefined = np.full(rows.size, np.nan)
        metrics = {attr: metrics.get(attr, undefined) for attr, _, _ in METRICS.values()}
        return TradeTable(t_ns=ts[rows], order_id=oid[rows], qty=sign * qty[rows],
                          price=price[rows], participant_label=label[rows], **metrics)

    rows = np.flatnonzero(aggressor)
    start = _run_starts(oid[rows])
    first, sweep = rows[start], np.cumsum(start) - 1
    buy = bid[first]                                # buy sweeps rest on the bid side
    q = np.searchsorted(quotes.ts_ns, ts[first], side="left") - 1   # the pre-trade quote
    best = np.where(buy, quotes.ask[q], quotes.bid[q])
    avail = np.where(buy, quotes.ask_qty[q], quotes.bid_qty[q])
    at_best = np.add.reduceat(np.where(price[rows] == best[sweep], qty[rows], 0),
                              np.flatnonzero(start))
    defined = (q >= 0) & ~np.isnan(best) & (avail > 0) & (at_best > 0)
    ratio = np.full(first.size, np.nan)
    ratio[defined] = np.minimum(1.0, at_best[defined] / avail[defined])
    aggressive = table(rows, np.where(buy, 1, -1)[sweep], volume_ratio=ratio[sweep],
                       trade_to_trade_ns=_since_last(ts, ts[first])[sweep])

    # passive fills by resting order, in add order, each in feed order
    rows = np.flatnonzero(~aggressor)
    rows = rows[np.argsort(fills.lifecycle[rows], kind="stable")]
    lc = fills.lifecycle[rows]
    passive = table(rows, np.where(bid[rows], -1, 1),           # ask fills are buyer-initiated
                    trade_to_add_ns=_since_last(ts, lcs.add_ts[lc]),
                    update_count=lcs.n_updates[lc],
                    add_to_add_ns=_add_to_add(lcs.add_ts, lcs.side == BID, lcs.add_price)[lc])
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
        if not isinstance(self.metric, str) or self.metric not in METRICS:
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


def classify(trades: TradeTable, spec: ClusterSpec) -> np.ndarray:
    """Cluster index per trade; -1 for trades with an undefined metric.

    Time metrics: cluster = number of thresholds at or below the value,
    so the fastest trades land in cluster 0.  Volume ratio and update
    count are reversed: cluster = number of thresholds at or above the
    value, so depleting trades / heavily updated orders land in cluster 0.
    """
    attr, _side, ascending = METRICS[spec.metric]
    values = getattr(trades, attr)
    th = np.array(spec.thresholds)
    out = (np.searchsorted(th, values, side="right") if ascending
           else th.size - np.searchsorted(th, values, side="left"))
    return np.where(np.isnan(values), UNDEFINED_CLUSTER, out).astype(np.int32)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


@dataclass
class SignatureCurve:
    values: dict        # cluster id, ascending -> tuple of ST(k) along the caller's horizons
    counts: dict        # cluster id -> number of trades (horizon-independent)


def signature_curves(trades: TradeTable, clusters: np.ndarray,
                     horizons_ns, eps: int, reference: str,
                     quotes: QuoteSeries) -> SignatureCurve:
    """ST(k) per cluster along the horizon grid (undefined bucket dropped);
    ``np.bincount`` sums each cluster in row order, as a loop would.  A
    bucket whose trades are all for 0 units is rejected, naming it.  A
    time ``t + k`` beyond the int64 range saturates at its end, so a time
    past the last snapshot reads that snapshot as its left limit."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    horizons_ns = tuple(int(k) for k in horizons_ns)
    clusters = np.asarray(clusters)
    defined = clusters != UNDEFINED_CLUSTER
    cohort = trades.take(defined)
    ids, labels, counts = np.unique(clusters[defined], return_inverse=True, return_counts=True)
    qty = cohort.qty.astype(float)
    den = np.bincount(labels, weights=np.abs(qty), minlength=ids.size)
    empty = np.flatnonzero(den == 0.0)
    if empty.size:
        i = empty[0]
        raise ValueError(f"bucket {ids[i]} has no traded volume: n_trades = {counts[i]}, "
                         f"each for 0 units, so its signature is 0/0")
    st = np.empty((ids.size, len(horizons_ns)))
    int64 = np.iinfo(np.int64)
    for h, k_ns in enumerate(horizons_ns):
        # clip before adding: int64 addition wraps silently
        t_k = np.clip(cohort.t_ns, int64.min - min(k_ns, 0), int64.max - max(k_ns, 0)) + k_ns
        try:
            x = quotes.reference(t_k, reference, qty)
        except QuoteError as exc:
            raise ValueError(f"reference lookup failed for trade of order "
                             f"{cohort.order_id[exc.index]} at t = {cohort.t_ns[exc.index]} "
                             f"+ k = {k_ns}: {exc}") from None
        st[:, h] = eps * np.bincount(labels, weights=qty * (x - cohort.price),
                                     minlength=ids.size) / den
    ids = ids.tolist()
    return SignatureCurve(values=dict(zip(ids, map(tuple, st.tolist()))),
                          counts=dict(zip(ids, counts.tolist())))
