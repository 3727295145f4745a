"""Market-by-order event logs: schema, strict CSV parser, book replay.

The log is a flat event feed, one row per order-book event, reporting what
the matching engine did (it is not an instruction stream: executions are
reported against both the resting order and the aggressing order, so a
marketable add is followed by the execute rows that uncross the book).

CSV schema (exact header)::

    ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label

* ``action`` is one of add/modify/cancel/execute
* ``qty`` is an integer number of volume units; on modify it is the new
  resting quantity, on cancel it must equal the remaining quantity
  (partial reductions are modifies)
* ``aggressor_flag`` marks execute rows belonging to the incoming order
  (their price is the fill price, not the order's resting price); empty
  when not applicable
* ``participant_label`` is an optional ground-truth tag (simulator
  exports carry IT/NT/IMM/NMM), empty for real feeds

Replay applies events under price-time (FIFO) priority and reconstructs
every order's lifecycle together with per-timestamp best-quote snapshots.

The read side is columnar: :func:`parse` reads the body in one typed C
pass, checks field domains as array masks and order references in one
pass over integer lists, and returns an :class:`EventLog` of numpy
columns; :func:`reconstruct` replays with actions and sides as small
integers and returns :class:`Replay` tables of numpy columns.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import warnings
from bisect import insort
from collections import deque
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

__all__ = [
    "HEADER",
    "ACTIONS",
    "SIDES",
    "MboEvent",
    "EventLog",
    "Table",
    "Fill",
    "Fills",
    "OrderLifecycle",
    "Lifecycles",
    "Quote",
    "Quotes",
    "Replay",
    "MboParseError",
    "MboReplayError",
    "parse",
    "write_csv",
    "dumps",
    "reconstruct",
]

HEADER = ("ts_ns", "order_id", "action", "side", "price", "qty",
          "aggressor_flag", "participant_label")
ACTIONS = ("add", "modify", "cancel", "execute")
SIDES = ("bid", "ask")
ADD, MODIFY, CANCEL, EXECUTE = range(len(ACTIONS))
BID, ASK = range(len(SIDES))

_FLAGS = {"": None, "true": True, "1": True, "false": False, "0": False}
_ACTION_NAMES = np.array(ACTIONS, dtype=object)
_SIDE_NAMES = np.array(SIDES, dtype=object)


class MboParseError(ValueError):
    """Malformed or inconsistent log row; the message names the row."""


class MboReplayError(ValueError):
    """Event stream violates book discipline during replay."""


@dataclass(frozen=True, slots=True)
class MboEvent:
    ts_ns: int
    order_id: int
    action: str
    side: str
    price: float
    qty: int
    aggressor_flag: bool | None = None
    participant_label: str | None = None


class Table:
    """Equal-length 1-d numpy columns, one per field of the row type ``ROW``
    (a named tuple or a dataclass) and of the dtype at the same place in
    ``DTYPES``; the columns are attributes named after the fields.

    The constructor takes the columns by position or by field name and
    converts each one once.  ``len``, iteration and integer indexing give
    ``ROW`` rows of Python values, and ``==`` compares row by row with any
    table or sequence of them.
    """

    ROW: type
    DTYPES: tuple

    def __init__(self, *columns, **named):
        named.update(zip(self.fields(), columns))
        for name, dtype in zip(self.fields(), self.DTYPES):
            setattr(self, name, np.asarray(named[name], dtype=dtype))
        cols = self.columns()
        if len({col.shape for col in cols} | {(cols[0].size,)}) != 1:
            raise ValueError(f"{type(self).__name__} columns must be 1-d and of equal length")
        self._check()

    def _check(self) -> None:
        """Raise ValueError if the columns break an invariant of the table."""

    @classmethod
    def fields(cls) -> tuple[str, ...]:
        """The column names: the positional fields of ``ROW``, in order."""
        return cls.ROW.__match_args__

    @classmethod
    def from_rows(cls, rows):
        """The table of an iterable of ``ROW`` rows (a table of this type as is)."""
        if isinstance(rows, cls):
            return rows
        columns = list(zip(*map(operator.attrgetter(*cls.fields()), rows)))
        return cls(*(columns or [()] * len(cls.fields())))

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.fields())

    def take(self, rows):
        """The rows picked by a boolean mask or an index array."""
        return type(self)(*(col[rows] for col in self.columns()))

    def __len__(self) -> int:
        return len(self.columns()[0])

    def __iter__(self):
        return map(self.ROW, *(col.tolist() for col in self.columns()))

    def __getitem__(self, i: int):
        i = operator.index(i)
        return self.ROW(*(col.item(i) for col in self.columns()))

    def __eq__(self, other):
        if not isinstance(other, (Table, Sequence)) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class EventLog(Table):
    """A log as one numpy column per CSV field, in file order; its rows are
    :class:`MboEvent`."""

    ROW = MboEvent
    DTYPES = (np.int64, np.int64, object, object, np.float64, np.int64, object, object)


# ---------------------------------------------------------------------------
# Replay tables
# ---------------------------------------------------------------------------


class Fill(NamedTuple):
    """One execute row of the feed."""

    row: int                          # index of the row in the log
    lifecycle: int                    # index of the executed order's lifecycle
    ts_ns: int
    order_id: int
    side: str                         # side of the executed order
    price: float                      # execution price
    qty: int
    aggressor: bool
    participant_label: str | None     # the executed order's label


class OrderLifecycle(NamedTuple):
    """An order from its add to its terminal event (or end of file)."""

    order_id: int
    side: str
    add_ts: int
    add_price: float
    add_qty: int
    participant_label: str | None
    price: float                      # last resting price
    n_updates: int
    executed_qty: int
    terminal_ts: int | None
    terminal_kind: str | None         # "executed" | "canceled" | None


class Quote(NamedTuple):
    """The best quotes at the end of one timestamp; nan prices and zero
    quantities on an empty side."""

    ts_ns: int
    bid: float
    ask: float
    bid_qty: int
    ask_qty: int


class Fills(Table):
    ROW = Fill
    DTYPES = (np.int64, np.int64, np.int64, np.int64, object, np.float64, np.int64, bool, object)


class Lifecycles(Table):
    ROW = OrderLifecycle
    DTYPES = (np.int64, object, np.int64, np.float64, np.int64, object, np.float64, np.int64,
              np.int64, object, object)


class Quotes(Table):
    ROW = Quote
    DTYPES = (np.int64, np.float64, np.float64, np.int64, np.int64)


@dataclass
class Replay:
    lifecycles: Lifecycles                # one per add, in feed order
    fills: Fills                          # one per execute row, in feed order
    quotes: Quotes                        # one per distinct timestamp
    open_order_ids: list                  # resting at end of file, in the order of their adds


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_NUMBERS = {name: dtype for name, dtype in zip(HEADER, EventLog.DTYPES) if dtype is not object}
#: one body record as the C reader types it; text fields stay exact strings
_DTYPE = np.dtype(list(zip(HEADER, EventLog.DTYPES)))
_TEXT = np.dtype([(name, object) for name in HEADER])
#: separators the C reader skips around a number as whitespace, and Python's int/float do not
_C_SPACES = "\x1c\x1d\x1e\x1f"


def _read(lines, dtype=_DTYPE) -> np.ndarray:
    """The CSV records of ``lines`` (an iterable of text lines) in one C
    pass, blank lines skipped; ValueError if a record does not read."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          ndmin=1)


def _numbered(reader, lineno: int):
    """(row number, fields) of each record of a csv ``reader``, blank ones
    included, numbered from ``lineno``.  A record the csv module cannot
    read (a field over its size limit, a bare carriage return inside a
    line) raises :class:`MboParseError` naming its row."""
    try:
        for row in reader:
            yield lineno, row
            lineno += 1
    except csv.Error as exc:
        raise MboParseError(f"row {lineno}: {exc}") from None


def _split_at_fault(lines: list[str]) -> tuple[list[str], list[str]]:
    """(the lines before the first record the C reader rejects, that
    record's lines).  Records read independently, so the first bad one is
    found by halving windows of whole records."""
    reader = csv.reader(lines)
    starts, at = [], 0
    for _, row in _numbered(reader, 2):
        if row:
            starts.append(at)
        at = reader.line_num
    starts.append(len(lines))
    lo, hi = 0, len(starts) - 1              # the first bad record is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _read(lines[starts[lo]:starts[mid]])
            lo = mid
        except ValueError:
            hi = mid
    return lines[:starts[lo]], lines[starts[lo]:starts[lo + 1]]


def _unreadable_numbers(record: list[str]) -> set[str]:
    """Names of the numeric fields of one record the C reader rejects."""
    bad = set()
    for name in _NUMBERS:
        try:
            _read(record, np.dtype([(f, _DTYPE[f] if f == name else object) for f in HEADER]))
        except ValueError:
            bad.add(name)
    return bad


def _row_fault(lineno: int, row: list[str], unreadable=()) -> str | None:
    """The per-row checks of one CSV record in their order: the message of
    the first that fails, or None.  A number Python reads is still bad
    when its field is in ``unreadable`` (the C reader rejects it)."""
    if len(row) != len(HEADER):
        return f"row {lineno}: expected {len(HEADER)} fields, got {len(row)}"

    def number(i, cast):
        value = cast(row[i])
        if HEADER[i] in unreadable:
            raise ValueError(f"could not convert {row[i]!r} to {_DTYPE[HEADER[i]]}")
        return value

    try:
        number(0, int)
        number(1, int)
    except ValueError as exc:
        return f"row {lineno}: {exc}"
    if row[2] not in ACTIONS:
        return f"row {lineno}: unknown action {row[2]!r}"
    if row[3] not in SIDES:
        return f"row {lineno}: unknown side {row[3]!r}"
    try:
        price = number(4, float)
        qty = number(5, int)
    except ValueError as exc:
        return f"row {lineno}: {exc}"
    if qty < 0:
        return f"row {lineno}: negative qty {qty}"
    if not math.isfinite(price):
        return f"row {lineno}: price {row[4]!r} is not finite"
    if row[6].strip().lower() not in _FLAGS:
        return f"row {lineno}: bad aggressor_flag {row[6]!r}"
    return None


def _python_rejects(records: np.ndarray) -> np.ndarray:
    """Records (read as text) whose ts_ns, order_id, price or qty Python's
    int/float do not read."""
    def rejects(cast, text):
        try:
            cast(text)
        except ValueError:
            return True
        return False

    casts = [int if dtype is np.int64 else float for dtype in _NUMBERS.values()]
    columns = [records[name].tolist() for name in _NUMBERS]
    return np.array([any(map(rejects, casts, texts)) for texts in zip(*columns)], dtype=bool)


def _codes(values, names) -> np.ndarray:
    """Index of each value in ``names`` as int8, -1 for any other value."""
    values = np.asarray(values, dtype=object)
    codes = np.full(values.shape, -1, dtype=np.int8)
    for k, name in enumerate(names):
        codes[values == name] = k
    return codes


def _flags(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(True/False/None per aggressor_flag text, mask of texts that are no flag)."""
    flags = np.full(texts.shape, None, dtype=object)
    bad = np.zeros(texts.shape, dtype=bool)
    is_true, is_false = texts == "true", texts == "false"
    flags[is_true] = True
    flags[is_false] = False
    for i in np.flatnonzero(~(is_true | is_false | (texts == ""))):  # other spellings
        flag = _FLAGS.get(texts[i].strip().lower(), bad)
        if flag is bad:
            bad[i] = True
        else:
            flags[i] = flag
    return flags, bad


def _reference_fault(act: list, oid: list, side: list, qty: list) -> tuple[int, str] | None:
    """(index, message) of the first row naming an order it may not, or
    None: modify/cancel/execute need a live order on the same side, an
    execute at most its resting quantity, and an add a new order id."""
    live: dict[int, tuple[int, int]] = {}    # order_id -> (remaining qty, side)
    for i, (a, o, s, q) in enumerate(zip(act, oid, side, qty)):
        if a == ADD:
            if o in live:
                return i, f"order {o} added twice"
            live[o] = (q, s)
            continue
        resting_order = live.get(o)
        if resting_order is None:
            return i, f"{ACTIONS[a]} references unknown order {o}"
        resting, order_side = resting_order
        if s != order_side:
            if a == MODIFY:
                return i, f"modify moves order {o} from {SIDES[order_side]} to {SIDES[s]}"
            return i, (f"{ACTIONS[a]} on {SIDES[s]} names order {o}, "
                       f"which rests on {SIDES[order_side]}")
        if a == MODIFY:
            live[o] = (q, s)
        elif a == CANCEL:
            del live[o]
        elif q > resting:  # execute
            return i, f"execute qty {q} exceeds resting {resting} on order {o}"
        elif q == resting:
            del live[o]
        else:
            live[o] = (resting - q, s)
    return None


def parse(source, tick: float | None = None) -> EventLog:
    """Read and validate a log; returns an :class:`EventLog` of numpy
    columns in file order.

    Validation: exact header, field domains (finite prices), nondecreasing
    timestamps, referential integrity (modify/cancel/execute must reference
    a live order, and a modify keeps the order's side), execute volume
    within the resting quantity, and optional tick-multiple price checks.
    Errors name the first offending row, counting CSV records from the
    header as row 1, blank ones included.  A ``tick`` must be positive
    and finite.  Numbers are read by numpy's C reader, which rejects some
    spellings Python's int/float accept (digit separators such as
    ``5_000``); those rows are rejected too.
    """
    if tick is not None and not 0.0 < tick < math.inf:
        raise ValueError(f"tick must be positive and finite, got {tick}")
    with nullcontext(source) if hasattr(source, "read") else open(source, newline="") as fh:
        return _parse_lines(fh if fh.seekable() else io.StringIO(fh.read(), newline=""), tick)


def _parse_lines(lines, tick: float | None) -> EventLog:
    """:func:`parse` of a seekable text stream: read once, re-read only to
    phrase an error."""
    first = lines.readline()
    rows = _numbered(csv.reader(chain([first], lines)), 1) if first else iter(())
    _, header = next(rows, (1, None))
    if header is None:
        raise MboParseError("row 1: missing header")
    if tuple(header) != HEADER:
        raise MboParseError(f"row 1: header {header!r} does not match {','.join(HEADER)}")
    body = lines.tell()
    odd = any(c in chunk for chunk in iter(partial(lines.read, 1 << 20), "") for c in _C_SPACES)
    lines.seek(body)

    try:
        records, prefix, unreadable = _read(lines), None, None
    except ValueError:                       # find the record, keep what reads before it
        lines.seek(body)
        prefix, unreadable = _split_at_fault(lines.readlines())
        records = _read(prefix)
    n = len(records)

    def record(i: int) -> tuple[int, list[str]]:
        """(row number, fields) of the ``i``-th nonblank body record."""
        lines.seek(body)
        rows = ((lineno, row) for lineno, row in _numbered(csv.reader(lines), 2) if row)
        return next(islice(rows, i, None))

    ts, oid, price, qty = (np.ascontiguousarray(records[name]) for name in _NUMBERS)
    act = _codes(records["action"], ACTIONS)
    side = _codes(records["side"], SIDES)
    flag, bad_flag = _flags(records["aggressor_flag"])
    domain = (act < 0) | (side < 0) | (qty < 0) | ~np.isfinite(price) | bad_flag
    if odd:
        lines.seek(body)
        domain |= _python_rejects(_read(lines if prefix is None else prefix, _TEXT))
    backwards = np.zeros(n, dtype=bool)
    backwards[1:] = ts[1:] < ts[:-1]
    faults = [domain, backwards]
    if tick is not None:
        with np.errstate(invalid="ignore"):   # a non-finite price is a domain fault already
            steps = price / tick
            faults.append(np.abs(steps - np.round(steps)) > 1e-6)
    bad = np.flatnonzero(np.logical_or.reduce(faults))
    first = int(bad[0]) if bad.size else n

    fault = _reference_fault(act[:first].tolist(), oid[:first].tolist(), side[:first].tolist(),
                             qty[:first].tolist())
    if fault is not None:
        i, message = fault
        raise MboParseError(f"row {record(i)[0]}: {message}")
    if first < n:
        lineno, row = record(first)
        if domain[first]:
            raise MboParseError(_row_fault(lineno, row))
        if backwards[first]:
            raise MboParseError(f"row {lineno}: timestamp {int(ts[first])} goes backwards")
        raise MboParseError(f"row {lineno}: price {float(price[first])} "
                            f"is not a multiple of tick {tick}")
    if unreadable is not None:
        lineno, row = record(n)
        raise MboParseError(_row_fault(lineno, row, _unreadable_numbers(unreadable))
                            or f"row {lineno}: malformed record")

    label = np.array(records["participant_label"])
    label[label == ""] = None
    return EventLog(ts, oid, _ACTION_NAMES[act], _SIDE_NAMES[side], price, qty, flag, label)


class _PriceText(dict):
    """17-digit text of each distinct price, formatted on first sight.
    Zeros are not kept: 0.0 and -0.0 are one key but two texts."""

    def __missing__(self, price: float) -> str:
        text = f"{price:.17g}"
        if price:
            self[price] = text
        return text


_FLAG_TEXT = {None: "", True: "true", False: "false"}
_LABEL_TEXT = {None: ""}
#: rows per block that write_csv holds as Python values at a time
_WRITE_ROWS = 1 << 12


def write_csv(events, destination) -> None:
    """Serialize events in the canonical schema (UTF-8, 17-digit prices).

    ``events`` is an :class:`EventLog` or an iterable of :class:`MboEvent`;
    the rows are written from the log's columns, a block of rows at a time.
    """
    log, price_text = EventLog.from_rows(events), _PriceText().__getitem__
    stream = hasattr(destination, "write")
    with nullcontext(destination) if stream else open(destination, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(HEADER)
        for start in range(0, len(log), _WRITE_ROWS):
            ts, oid, action, side, price, qty, flag, label = (
                col[start:start + _WRITE_ROWS].tolist() for col in log.columns())
            writer.writerows(zip(ts, oid, action, side, map(price_text, price), qty,
                                 map(_FLAG_TEXT.__getitem__, flag),
                                 map(_LABEL_TEXT.get, label, label)))


def dumps(events) -> str:
    buf = io.StringIO()
    write_csv(events, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class _Book:
    """Resting orders of one side: FIFO queues of lifecycle indices per
    price, the quantity resting at each price and the sorted prices."""

    def __init__(self, is_bid: bool):
        self.is_bid = is_bid
        self.queues: dict[float, deque] = {}
        self.volume: dict[float, int] = {}
        self.prices: list[float] = []     # ascending

    def add(self, price: float, k: int, qty: int) -> None:
        dq = self.queues.get(price)
        if dq is None:
            self.queues[price] = deque((k,))
            self.volume[price] = qty
            insort(self.prices, price)
        else:
            dq.append(k)
            self.volume[price] += qty

    def remove(self, price: float, k: int, qty: int) -> None:
        dq = self.queues[price]
        dq.remove(k)
        if dq:
            self.volume[price] -= qty
        else:
            del self.queues[price], self.volume[price]
            self.prices.remove(price)

    def best(self):
        if not self.prices:
            return None
        return self.prices[-1] if self.is_bid else self.prices[0]


def reconstruct(events) -> Replay:
    """Replay a validated event stream: an :class:`EventLog` or a sequence
    of :class:`MboEvent`, converted once.

    Maintains price-time priority (executions must consume the front of
    their price queue), rebuilds every order lifecycle, and records a
    best-quote snapshot per distinct timestamp: the state after the last
    row carrying that timestamp, i.e. the state prevailing until the
    next one.  A book left crossed or locked at the end of a timestamp
    (best bid >= best ask) is rejected, naming the timestamp and the event.
    Actions other than add, modify and cancel replay as executes.
    """
    log = EventLog.from_rows(events)
    act = _codes(log.action, ACTIONS)
    act[act < 0] = EXECUTE
    side = _codes(log.side, SIDES)
    ts, oid, price, qty, flag = (col.tolist() for col in (log.ts_ns, log.order_id, log.price,
                                                          log.qty, log.aggressor_flag))
    books = (_Book(True), _Book(False))
    live: dict[int, int] = {}                 # order_id -> lifecycle index, while resting
    # per lifecycle (the k-th add): side, resting price and quantity, terminal row or -1
    lc_side, lc_price, lc_rest, lc_end = [], [], [], []
    fill_lc, modified = [], []                # the lifecycle of each execute and modify row
    q_ts, q_bid, q_ask, q_bq, q_aq = [], [], [], [], []

    def push_snapshot(n):
        """Snapshot the book as row ``n`` left it at the end of its timestamp."""
        bb, ba = books[BID].best(), books[ASK].best()
        if bb is not None and ba is not None and bb >= ba:
            raise MboReplayError(
                f"book crossed at ts_ns {ts[n]}: best bid {bb} >= best ask {ba} "
                f"after event {n + 1} of the feed ({log.action[n]} of order {oid[n]})"
            )
        q_ts.append(ts[n])
        q_bid.append(bb)
        q_ask.append(ba)
        q_bq.append(books[BID].volume[bb] if bb is not None else 0)
        q_aq.append(books[ASK].volume[ba] if ba is not None else 0)

    sides = side.tolist()
    prev_ts = ts[0] if len(ts) else None
    for n, (t, a, o, p, q) in enumerate(zip(ts, act.tolist(), oid, price, qty)):
        if t > prev_ts:
            push_snapshot(n - 1)
        prev_ts = t
        if a == ADD:
            live[o] = len(lc_side)
            books[sides[n]].add(p, len(lc_side), q)
            lc_side.append(sides[n])
            lc_price.append(p)
            lc_rest.append(q)
            lc_end.append(-1)
            continue

        k = live.get(o)
        if k is None:
            raise MboReplayError(f"{log.action[n]} references dead order {o}")
        book = books[lc_side[k]]
        rest, at = lc_rest[k], lc_price[k]
        if a == EXECUTE:
            if book.queues[at][0] != k:
                raise MboReplayError(
                    f"execute on order {o} which is not at the front "
                    f"of {SIDES[lc_side[k]]}@{at}"
                )
            if flag[n] is not True and p != at:
                raise MboReplayError(f"execute price {p} != resting price {at} on order {o}")
            if q > rest:
                raise MboReplayError(f"execute qty {q} exceeds resting {rest} on order {o}")
            fill_lc.append(k)
            lc_rest[k] = rest - q
            if q == rest:
                book.remove(at, k, q)
                del live[o]
                lc_end[k] = n
            else:
                book.volume[at] -= q
        elif a == CANCEL:
            if q != rest:
                raise MboReplayError(f"cancel qty {q} != remaining {rest} on order {o}")
            book.remove(at, k, rest)
            del live[o]
            lc_end[k] = n
        else:  # modify: a price change or size increase loses queue position
            modified.append(k)
            if p != at or q > rest:
                book.remove(at, k, rest)
                book.add(p, k, q)
            else:
                book.volume[at] += q - rest
            lc_price[k] = p
            lc_rest[k] = q

    if len(ts):
        push_snapshot(len(ts) - 1)

    ts, oid, price, qty = log.ts_ns, log.order_id, log.price, log.qty
    adds, executes = np.flatnonzero(act == ADD), np.flatnonzero(act == EXECUTE)
    fill_lc, end = np.array(fill_lc, dtype=np.int64), np.array(lc_end, dtype=np.int64)
    label = log.participant_label[adds]
    executed = np.zeros(adds.size, dtype=np.int64)
    np.add.at(executed, fill_lc, qty[executes])
    ended = end >= 0
    lifecycles = Lifecycles(
        order_id=oid[adds], side=_SIDE_NAMES[side[adds]], add_ts=ts[adds],
        add_price=price[adds], add_qty=qty[adds], participant_label=label, price=lc_price,
        n_updates=np.bincount(np.array(modified, dtype=np.int64), minlength=adds.size),
        executed_qty=executed,
        terminal_ts=np.where(ended, ts[end].astype(object), None),
        terminal_kind=np.where(ended, np.where(act[end] == EXECUTE, "executed", "canceled"),
                               None),
    )
    fills = Fills(
        row=executes, lifecycle=fill_lc, ts_ns=ts[executes], order_id=oid[executes],
        side=lifecycles.side[fill_lc], price=price[executes], qty=qty[executes],
        aggressor=log.aggressor_flag[executes] == True,  # noqa: E712
        participant_label=label[fill_lc],
    )
    return Replay(
        lifecycles=lifecycles, fills=fills,
        quotes=Quotes(q_ts, q_bid, q_ask, q_bq, q_aq),      # an empty side's None -> nan
        open_order_ids=list(live),
    )
