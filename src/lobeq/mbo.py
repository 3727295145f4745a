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

The read side is array code from end to end.  An :class:`EventLog` holds
``action`` and ``side`` as int8 indices into :data:`ACTIONS` and
:data:`SIDES` and ``aggressor_flag`` as an int8 of -1/0/1 for
None/False/True; rows, equality and :func:`write_csv` decode them.
:func:`parse` reads the body in one typed C pass, the three coded fields
as fixed-width text it compares as arrays, and checks field domains as
array masks.  One order walk (:func:`_walk`: a stable sort by order id,
then segmented cumulative sums) gives every row its lifecycle and its
order's resting quantity; it holds parse's reference checks, and
:func:`reconstruct` recomputes it and builds fills, lifecycles, open
orders and quotes from its arrays.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import warnings
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
    "FLAGS",
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
#: the aggressor flag of code c is FLAGS[c]: -1 None, 0 False, 1 True
FLAGS = (False, True, None)

_FLAGS = {"": None, "true": True, "1": True, "false": False, "0": False}
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

    A field named in ``CODES`` holds small integer codes for the values
    ``CODES[field]``: code ``c`` stands for ``values[c]``, and only the
    ``None`` that may end the values has the code -1.  The constructor
    takes integer columns as codes and any other column as values, which
    it encodes; rows decode them.
    """

    ROW: type
    DTYPES: tuple
    CODES: dict[str, tuple] = {}

    def __init__(self, *columns, **named):
        named.update(zip(self.fields(), columns))
        for name, dtype in zip(self.fields(), self.DTYPES):
            setattr(self, name, np.asarray(named[name], dtype=None if name in self.CODES else dtype))
        cols = self.columns()
        if len({col.shape for col in cols} | {(cols[0].size,)}) != 1:
            raise ValueError(f"{type(self).__name__} columns must be 1-d and of equal length")
        for name, values in self.CODES.items():
            setattr(self, name, self._encode(name, getattr(self, name), values))
        self._check()

    def _encode(self, name: str, col: np.ndarray, values: tuple) -> np.ndarray:
        """``col`` as codes of ``values``: checked if it holds integers, else
        encoded; ValueError naming the first row whose value or code is
        not one of them."""
        low = -1 if values[-1] is None else 0
        if col.dtype.kind in "iu":
            bad = np.flatnonzero((col < low) | (col >= low + len(values)))
            if bad.size:
                raise ValueError(f"{type(self).__name__} row {bad[0]}: {name} code "
                                 f"{col[bad[0]]} is not one of {low}..{low + len(values) - 1}")
            return col.astype(np.int8, copy=False)
        index = {value: code for code, value in enumerate(values)}
        if low < 0:
            index[None] = -1
        codes = np.empty(col.size, dtype=np.int8)
        for i, value in enumerate(col.tolist()):
            try:
                codes[i] = index[value]
            except (KeyError, TypeError):
                raise ValueError(f"{type(self).__name__} row {i}: {name} {value!r} "
                                 f"is not one of {values}") from None
        return codes

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

    def _values(self) -> list[np.ndarray]:
        """The columns with codes decoded to their values."""
        return [np.asarray(self.CODES[name], dtype=object)[col] if name in self.CODES else col
                for name, col in zip(self.fields(), self.columns())]

    def take(self, rows):
        """The rows picked by a boolean mask or an index array."""
        return type(self)(*(col[rows] for col in self.columns()))

    def __len__(self) -> int:
        return len(self.columns()[0])

    def __iter__(self):
        return map(self.ROW, *(col.tolist() for col in self._values()))

    def __getitem__(self, i: int):
        i = operator.index(i)
        return self.ROW(*(self.CODES[name][col.item(i)] if name in self.CODES else col.item(i)
                          for name, col in zip(self.fields(), self.columns())))

    def __eq__(self, other):
        if not isinstance(other, (Table, Sequence)) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class EventLog(Table):
    """A log as one numpy column per CSV field, in file order; its rows are
    :class:`MboEvent`.  ``action``, ``side`` and ``aggressor_flag`` are int8
    codes: indices into :data:`ACTIONS` and :data:`SIDES`, and -1/0/1 for
    None/False/True."""

    ROW = MboEvent
    DTYPES = (np.int64, np.int64, np.int8, np.int8, np.float64, np.int64, np.int8, object)
    CODES = {"action": ACTIONS, "side": SIDES, "aggressor_flag": FLAGS}


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

_NUMBERS = {"ts_ns": np.int64, "order_id": np.int64, "price": np.float64, "qty": np.int64}
#: the exact texts of each coded field, with their codes
_SPELLINGS = {"action": {name: k for k, name in enumerate(ACTIONS)},
              "side": {name: k for k, name in enumerate(SIDES)},
              "aggressor_flag": {text: -1 if flag is None else int(flag)
                                 for text, flag in _FLAGS.items()}}
_WIDTH = {name: max(map(len, texts)) + 1 for name, texts in _SPELLINGS.items()}
#: one body record as the C reader types it.  A coded field is fixed-width
#: text one character wider than its longest spelling, so that a text that
#: fills it (and may have been cut) matches none.  Action and side are
#: bytes; the flag is str, as a flag may be padded with any whitespace; the
#: label stays an exact string
_DTYPE = np.dtype([("ts_ns", np.int64), ("order_id", np.int64),
                   ("action", f"S{_WIDTH['action']}"), ("side", f"S{_WIDTH['side']}"),
                   ("price", np.float64), ("qty", np.int64),
                   ("aggressor_flag", f"U{_WIDTH['aggressor_flag']}"),
                   ("participant_label", object)])
_TEXT = np.dtype([(name, object) for name in HEADER])
#: separators the C reader skips around a number as whitespace, and Python's
#: int/float do not; and NUL, which a fixed-width text drops at its end
_ODD = "\x1c\x1d\x1e\x1f\x00"
#: the code of a coded field's text that is none of its values
_BAD = -2


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


def _text_codes(records: np.ndarray) -> list[np.ndarray]:
    """The action, side and flag codes of body records, _BAD for a text
    that is none of its field's spellings: compared as arrays when read at
    fixed width, one by one when read as exact text (a flag trimmed and
    lowered first)."""
    codes = []
    for name, spellings in _SPELLINGS.items():
        texts = records[name]
        if texts.dtype == object:
            flag = name == "aggressor_flag"
            codes.append(np.array([spellings.get(t.strip().lower() if flag else t, _BAD)
                                   for t in texts.tolist()], dtype=np.int8))
            continue
        col = np.full(texts.size, _BAD, dtype=np.int8)
        for text, code in spellings.items():
            col[texts == (text.encode() if texts.dtype.kind == "S" else text)] = code
        codes.append(col)
    return codes


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
    phrase an error or to read texts a fixed width may hide."""
    first = lines.readline()
    rows = _numbered(csv.reader(chain([first], lines)), 1) if first else iter(())
    _, header = next(rows, (1, None))
    if header is None:
        raise MboParseError("row 1: missing header")
    if tuple(header) != HEADER:
        raise MboParseError(f"row 1: header {header!r} does not match {','.join(HEADER)}")
    body = lines.tell()
    odd = any(c in chunk for chunk in iter(partial(lines.read, 1 << 20), "") for c in _ODD)
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
    act, side, flag = _text_codes(records)
    label = np.array(records["participant_label"])
    del records
    label[label == ""] = None
    domain = np.zeros(n, dtype=bool)
    if odd or np.any(flag == _BAD):          # texts a fixed width may hide: read them whole
        lines.seek(body)
        texts = _read(lines if prefix is None else prefix, _TEXT)
        act, side, flag = _text_codes(texts)
        if odd:
            domain = _python_rejects(texts)
        del texts
    domain |= (act == _BAD) | (side == _BAD) | (flag == _BAD) | (qty < 0) | ~np.isfinite(price)
    backwards = np.zeros(n, dtype=bool)
    backwards[1:] = ts[1:] < ts[:-1]
    faults = [domain, backwards]
    if tick is not None:
        with np.errstate(invalid="ignore"):   # a non-finite price is a domain fault already
            steps = price / tick
            faults.append(np.abs(steps - np.round(steps)) > 1e-6)
    bad = np.flatnonzero(np.logical_or.reduce(faults))
    first = int(bad[0]) if bad.size else n

    fault = _walk(act[:first], oid[:first], side[:first], qty[:first], "unknown").fault
    if fault is not None:
        i, message, _ = fault
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
    return EventLog(ts, oid, act, side, price, qty, flag, label)


class _PriceText(dict):
    """17-digit text of each distinct price, formatted on first sight.
    Zeros are not kept: 0.0 and -0.0 are one key but two texts."""

    def __missing__(self, price: float) -> str:
        text = f"{price:.17g}"
        if price:
            self[price] = text
        return text


_ACTION_TEXT = np.array(ACTIONS, dtype=object)
_FLAG_TEXT = np.array(["false", "true", ""], dtype=object)     # by flag code, -1 last
_LABEL_TEXT = {None: ""}
#: rows per block that write_csv holds as Python values at a time
_WRITE_ROWS = 1 << 12


def write_csv(events, destination) -> None:
    """Serialize events in the canonical schema (UTF-8, 17-digit prices).

    ``events`` is an :class:`EventLog` or an iterable of :class:`MboEvent`;
    the rows are written from the log's columns, a block of rows at a time,
    with the coded fields decoded to their text.
    """
    log, price_text = EventLog.from_rows(events), _PriceText().__getitem__
    texts = (None, None, _ACTION_TEXT, _SIDE_NAMES, None, None, _FLAG_TEXT, None)
    stream = hasattr(destination, "write")
    with nullcontext(destination) if stream else open(destination, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(HEADER)
        for start in range(0, len(log), _WRITE_ROWS):
            ts, oid, action, side, price, qty, flag, label = (
                (col[start:start + _WRITE_ROWS] if text is None
                 else text[col[start:start + _WRITE_ROWS]]).tolist()
                for col, text in zip(log.columns(), texts))
            writer.writerows(zip(ts, oid, action, side, map(price_text, price), qty, flag,
                                 map(_LABEL_TEXT.get, label, label)))


def dumps(events) -> str:
    buf = io.StringIO()
    write_csv(events, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# The order walk
# ---------------------------------------------------------------------------


class _Walk(NamedTuple):
    """Each row's place in the life of its order.  ``order`` lists the rows
    by order id, stably, so that an order's rows are consecutive and in
    file order and each lifecycle is the run from an add to the next add;
    the other arrays are in that order."""

    order: np.ndarray     # int32 row at each position
    act: np.ndarray       # its action code
    reset: np.ndarray     # int32 position of the last add or modify at or before it
    rest: np.ndarray      # int64 quantity its order has resting after it (not for cancels)
    fault: tuple | None   # (row, message, is an over-execute) of the first reference fault


def _walk(act, oid, side, qty, unknown: str) -> _Walk:
    """The walk of the rows with these columns.  Its fault is at the first
    row naming an order it may not: a modify, cancel or execute needs a
    live order (else it "references ``unknown`` order") on the same side,
    an execute at most its resting quantity, and an add a new order id.
    Every check of a row reads only the rows of its order before it, so
    the first failing row is the one a sequential walk would stop at."""
    m = act.size
    order = np.argsort(oid, kind="stable").astype(np.int32)
    a, q, o = act[order], qty[order], oid[order]
    add, exe = a == ADD, a == EXECUTE
    reset = np.maximum.accumulate(np.where(add | (a == MODIFY), np.arange(m, dtype=np.int32), 0))
    done = np.cumsum(np.where(exe, q, 0))        # executed up to each position
    rest = q[reset] - done + done[reset]
    del done
    # the order rests before a row when the previous position is its own
    # row and was not a cancel or an execute of all that rested
    live = np.zeros(m, dtype=bool)
    live[1:] = (o[1:] == o[:-1]) & (a[:-1] != CANCEL) & ((rest[:-1] != 0) | ~exe[:-1])
    s = side[order]
    # a live order's rows before the first failing one share the side of its add
    moved = np.zeros(m, dtype=bool)
    moved[1:] = s[1:] != s[:-1]
    hits = np.flatnonzero(np.where(add, live, ~live | moved | (exe & (rest < 0))))
    fault = None
    if hits.size:
        p = hits[order[hits].argmin()]
        name, oid_p, over = ACTIONS[a[p]], int(o[p]), False
        if add[p]:
            message = f"order {oid_p} added twice"
        elif not live[p]:
            message = f"{name} references {unknown} order {oid_p}"
        elif moved[p] and a[p] == MODIFY:
            message = f"modify moves order {oid_p} from {SIDES[s[p - 1]]} to {SIDES[s[p]]}"
        elif moved[p]:
            message = (f"{name} on {SIDES[s[p]]} names order {oid_p}, "
                       f"which rests on {SIDES[s[p - 1]]}")
        else:
            over = True
            message = (f"execute qty {int(q[p])} exceeds resting {int(q[p] + rest[p])} "
                       f"on order {oid_p}")
        fault = (int(order[p]), message, over)
    return _Walk(order, a, reset, rest, fault)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _cover_max(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """For each point t of range(n), the largest i with lo[i] <= t < hi[i],
    or -1: each interval is laid on the nodes of a segment tree over the
    points that it covers whole, and each point takes the largest index on
    its path from the root."""
    size = 1 << max(n - 1, 0).bit_length()
    tree = np.full(2 * size, -1, dtype=np.int64)
    at, lo, hi = np.arange(lo.size), lo + size, hi + size
    while at.size:
        keep = lo < hi
        at, lo, hi = at[keep], lo[keep], hi[keep]
        left, right = (lo & 1) == 1, (hi & 1) == 1
        np.maximum.at(tree, lo[left], at[left])
        np.maximum.at(tree, hi[right] - 1, at[right])
        lo, hi = (lo + 1) >> 1, hi >> 1
    for k in range(1, size.bit_length()):
        tree[1 << k:2 << k] = np.maximum(tree[1 << k:2 << k], np.repeat(tree[1 << k - 1:1 << k], 2))
    return tree[size:size + n]


def _book(log: EventLog, walk: _Walk) -> tuple[Quotes, list[tuple[int, int, str]]]:
    """The best quotes at the end of each timestamp of the walked rows, and
    the first FIFO, passive price, cancel quantity and crossed-book fault
    among them as (row, rank of the check within a row, message).

    Each add, and each modify that changes the price or raises the size,
    starts a stint of its order in the queue of its (side, price) level,
    which its next such modify, its cancel or its last execute ends.  An
    execute is at the front when every stint that entered its level before
    its own has ended: a prefix maximum of exit rows per level.  A level is
    shown from the entry that finds it empty to the end of its last
    overlapping stint, and its depth is the cumulative sum of the volume
    each row moves there.
    """
    order, a, reset, rest, _ = walk
    m, ts, oid, side = order.size, log.ts_ns, log.order_id, log.side
    px, q = log.price[order], log.qty[order]
    held = px[reset]                             # the order's resting price after each row
    before = np.zeros(m, dtype=np.int64)         # and its resting quantity before it
    before[1:] = rest[:-1]
    add, mod, cancel, exe = (a == code for code in (ADD, MODIFY, CANCEL, EXECUTE))
    entry = add.copy()
    entry[1:] |= mod[1:] & ((px[1:] != held[:-1]) | (q[1:] > before[1:]))
    stint = np.cumsum(entry, dtype=np.int32) - 1           # the stint each row leaves queued
    marks = np.flatnonzero(entry | cancel | (exe & (rest == 0)))
    after = np.append(marks[1:], m)[entry[marks]]          # the next mark after each entry
    ended = (after < m) & ~add[np.minimum(after, m - 1)]   # ... is its own, not the next add
    e_row = order[entry]
    x_row = np.where(ended, order[np.minimum(after, m - 1)], m)   # the row that ends it
    del marks, after, ended
    level = np.unique(px[entry], return_inverse=True)[1] * 2 + side[e_row]
    by = np.argsort(level * (m + 1) + e_row)               # stints by level, then entry
    lv, e_by = level[by], e_row[by]
    first = np.ones(lv.size, dtype=bool)
    first[1:] = lv[1:] != lv[:-1]
    span = (np.cumsum(first) - 1) * (m + 2)                # lifts each level above the last
    reach = np.maximum.accumulate(x_row[by] + span) - span  # latest exit at the level so far
    ahead = np.full(lv.size, -1, dtype=np.int64)           # ... before this stint entered
    ahead[1:] = np.where(first[1:], -1, reach[:-1])
    del span, first

    faults = []
    xp = np.flatnonzero(exe)
    ahead_of = np.empty_like(ahead)
    ahead_of[by] = ahead
    for rank, hits, message in (
            (1, xp[ahead_of[stint[xp]] > order[xp]],
             lambda p, o: f"execute on order {o} which is not at the front "
                          f"of {SIDES[side[order[p]]]}@{float(held[p])}"),
            (2, xp[(log.aggressor_flag[order[xp]] != 1) & (px[xp] != held[xp])],
             lambda p, o: f"execute price {float(px[p])} != resting price {float(held[p])} "
                          f"on order {o}"),
            (3, np.flatnonzero(cancel & (q != before)),
             lambda p, o: f"cancel qty {int(q[p])} != remaining {int(before[p])} "
                          f"on order {o}")):
        if hits.size:
            p = hits[order[hits].argmin()]
            faults.append((int(order[p]), rank, message(p, int(oid[order[p]]))))
    del xp, ahead_of, by

    # the volume each row moves at its level before it, and each entry at its own
    moved = np.flatnonzero(~add)
    key = np.concatenate([level[stint[moved] - entry[moved]], level]) * (2 * m) + np.concatenate(
        [2 * order[moved], 2 * e_row + 1])
    change = np.concatenate([np.where(exe[moved], -q[moved],
                                      np.where(mod[moved] & ~entry[moved], q[moved], 0)
                                      - before[moved]), q[entry]])
    del moved, level, stint
    by_key = np.argsort(key)
    key, volume = key[by_key], np.cumsum(change[by_key])
    del by_key, change

    nxt = ts[1:m + 1]
    ends = np.flatnonzero(ts[:nxt.size] < nxt)                # the last row of each timestamp
    if m == len(log) and m:
        ends = np.append(ends, m - 1)
    start = np.flatnonzero(ahead <= e_by)                  # entries that find the level empty
    shown = (lv[start], log.price[e_by[start]],            # level, first price, rows covered
             np.searchsorted(ends, e_by[start]),
             np.searchsorted(ends, reach[np.append(start[1:], lv.size) - 1]))
    (bid, bid_qty), (ask, ask_qty) = (_best(code, shown, ends, key, volume, m)
                                      for code in (BID, ASK))
    crossed = np.flatnonzero(bid >= ask)                   # False where a side is empty (nan)
    if crossed.size:
        k = crossed[0]
        j = int(ends[k])
        faults.append((j, 4, f"book crossed at ts_ns {int(ts[j])}: best bid {float(bid[k])} "
                             f">= best ask {float(ask[k])} after event {j + 1} of the feed "
                             f"({ACTIONS[log.action[j]]} of order {int(oid[j])})"))
    return Quotes(ts[ends], bid, ask, bid_qty, ask_qty), faults


def _best(side: int, shown: tuple, ends: np.ndarray, key: np.ndarray, volume: np.ndarray,
          m: int) -> tuple[np.ndarray, np.ndarray]:
    """(price, depth) of the best level of ``side`` after each row of
    ``ends``, nan and 0 where none is shown.  ``shown`` holds the shown
    periods (level, first price, first and end index in ``ends``) by level,
    ``volume`` the cumulative volume by ``key`` (level * 2m + 2 * row + 1
    for an entry) within each level."""
    lv, price, lo, hi = shown
    mine = np.flatnonzero(lv % 2 == side)
    if side == ASK:                                        # the lowest level wins
        mine = mine[::-1]
    top = _cover_max(lo[mine], hi[mine], ends.size)
    period = np.append(mine, 0)[top]                       # top -1: none shown, any will do
    base = lv[period] * (2 * m)
    last = np.searchsorted(key, base + 2 * ends + 2) - 1   # the level's last change by the row
    below = np.searchsorted(key, base) - 1
    depth = volume[last] - np.where(below >= 0, volume[below], 0)
    return np.where(top >= 0, price[period], np.nan), np.where(top >= 0, depth, 0)


_TERMINAL_KINDS = np.array([None, None, "canceled", "executed"], dtype=object)  # by last action


def _lifecycles(log: EventLog, walk: _Walk) -> tuple[Lifecycles, Fills, list]:
    """The lifecycles, fills and open order ids of a walked log without faults."""
    order, a, reset, rest, _ = walk
    n = order.size
    ts, oid, price, qty = log.ts_ns, log.order_id, log.price, log.qty
    starts = np.flatnonzero(a == ADD)
    feed = np.argsort(order[starts])                       # the lifecycles in feed order
    lasts = (np.append(starts[1:], n) - 1)[feed]           # the last position of each
    starts = starts[feed]
    adds, end = order[starts], order[lasts]
    updates = np.cumsum(a == MODIFY)
    executed = np.cumsum(np.where(a == EXECUTE, qty[order], 0))
    kind = a[lasts]
    ended = (kind == CANCEL) | ((kind == EXECUTE) & (rest[lasts] == 0))
    label = log.participant_label[adds]
    lifecycles = Lifecycles(
        order_id=oid[adds], side=_SIDE_NAMES[log.side[adds]], add_ts=ts[adds],
        add_price=price[adds], add_qty=qty[adds], participant_label=label,
        price=price[order[reset[lasts]]], n_updates=updates[lasts] - updates[starts],
        executed_qty=executed[lasts] - executed[starts],
        terminal_ts=np.where(ended, ts[end].astype(object), None),
        terminal_kind=_TERMINAL_KINDS[np.where(ended, kind, ADD)],
    )
    del updates, executed
    lifecycle = np.empty(n, dtype=np.int32)                # of each row
    rank = np.empty(feed.size, dtype=np.int32)
    rank[feed] = np.arange(feed.size, dtype=np.int32)
    lifecycle[order] = rank[np.cumsum(a == ADD) - 1]
    executes = np.flatnonzero(log.action == EXECUTE)
    fill_lc = lifecycle[executes]
    fills = Fills(
        row=executes, lifecycle=fill_lc, ts_ns=ts[executes], order_id=oid[executes],
        side=lifecycles.side[fill_lc], price=price[executes], qty=qty[executes],
        aggressor=log.aggressor_flag[executes] == 1, participant_label=label[fill_lc],
    )
    return lifecycles, fills, oid[adds[~ended]].tolist()


def reconstruct(events) -> Replay:
    """Replay a validated event stream: an :class:`EventLog` or a sequence
    of :class:`MboEvent`, converted once.

    Maintains price-time priority (executions must consume the front of
    their price queue), rebuilds every order lifecycle, and records a
    best-quote snapshot per distinct timestamp: the state after the last
    row carrying that timestamp, i.e. the state prevailing until the
    next one.  A book left crossed or locked at the end of a timestamp
    (best bid >= best ask) is rejected, naming the timestamp and the event.

    The replay is the order walk's arrays (see :func:`_book`).  A row that
    :func:`parse` would reject for its order reference is rejected in its
    words, except that an order no longer live is a dead order.  The error
    is the one at the first failing row, as a sequential replay meets it.
    """
    log = EventLog.from_rows(events)
    columns = log.action, log.order_id, log.side, log.qty
    walk = _walk(*columns, "dead")
    faults = []
    if walk.fault is not None:                 # replay the rows before it, and an over-execute
        row, message, over = walk.fault        # after its FIFO and price checks
        faults.append((row, 3 if over else 0, message))
        walk = _walk(*(col[:row + over] for col in columns), "dead")
    quotes, book_faults = _book(log, walk) if walk.order.size else (Quotes.from_rows([]), [])
    faults += book_faults
    if faults:
        raise MboReplayError(min(faults)[2])
    lifecycles, fills, open_ids = _lifecycles(log, walk)
    return Replay(lifecycles=lifecycles, fills=fills, quotes=quotes, open_order_ids=open_ids)
