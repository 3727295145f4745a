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
every order's lifecycle together with the best quotes of each timestamp.

The read side is array code from end to end.  An :class:`EventLog` holds
``action`` and ``side`` as int8 indices into :data:`ACTIONS` and
:data:`SIDES` and ``aggressor_flag`` as an int8 of -1/0/1 for
None/False/True; each table declares its columns, dtypes and codes once,
in its ``COLUMNS``.  The write side is one row encoder
(:func:`row_encoder`), which turns one row of codes into its CSV line: the
logged simulator emits its rows through it, and :func:`write_csv` writes
the header and the text.  :func:`parse` reads the body in one typed C
pass, the three coded fields as fixed-width text it compares as arrays,
and checks field domains as array masks.  One order walk (:func:`_walk`:
a stable sort by order id, then segmented cumulative sums) gives every
row its lifecycle and its order's resting quantity; it holds parse's
reference checks, and :func:`reconstruct` recomputes it and builds fills,
lifecycles and quotes from its arrays.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import warnings
from collections import namedtuple
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

__all__ = [
    "HEADER",
    "HEADER_LINE",
    "ACTIONS",
    "SIDES",
    "FLAGS",
    "EventLog",
    "Table",
    "Fills",
    "Lifecycles",
    "Quotes",
    "Replay",
    "MboParseError",
    "MboReplayError",
    "parse",
    "float_text",
    "row_encoder",
    "write_csv",
    "reconstruct",
]

ACTIONS = ("add", "modify", "cancel", "execute")
SIDES = ("bid", "ask")
ADD, MODIFY, CANCEL, EXECUTE = range(len(ACTIONS))
BID, ASK = range(len(SIDES))
#: the aggressor flag of code c is FLAGS[c]: -1 None, 0 False, 1 True
FLAGS = (False, True, None)

_FLAGS = {"": None, "true": True, "1": True, "false": False, "0": False}


class MboParseError(ValueError):
    """Malformed or inconsistent log row; the message names the row."""


class MboReplayError(ValueError):
    """Event stream violates book discipline during replay."""


class Table:
    """Equal-length 1-d numpy columns, one per entry of ``COLUMNS``, an
    ordered mapping from column name to dtype; the columns are attributes
    named after their entries.

    The constructor takes each column once, by position or by name, and
    converts it once.  A table is read as columns: ``len``, ``take`` and
    ``columns``.

    An entry whose dtype is a tuple of values is a column of int8 codes:
    code ``c`` stands for ``values[c]``, and only the ``None`` that may end
    the values has the code -1.  The constructor takes such a column as
    integer codes only.  ``Row``, a named tuple of the column names, is
    derived once per class from ``COLUMNS``.
    """

    COLUMNS: dict[str, type | tuple]
    Row: type

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "COLUMNS" in vars(cls):
            cls.Row = namedtuple(f"{cls.__name__}Row", cls.COLUMNS)

    def __init__(self, *columns, **named):
        fields = self.fields()
        given = [*fields[:len(columns)], *named]
        if len(columns) > len(fields) or sorted(given) != sorted(fields):
            raise ValueError(f"{type(self).__name__} takes each of the columns {fields} once, "
                             f"by position or by name; got {len(columns)} by position and "
                             f"{tuple(named)} by name")
        named.update(zip(fields, columns))
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, np.asarray(named[name], dtype=None if isinstance(dtype, tuple)
                                           else dtype))
        cols = self.columns()
        if len({col.shape for col in cols} | {(cols[0].size,)}) != 1:
            raise ValueError(f"{type(self).__name__} columns must be 1-d and of equal length")
        for name, values in self.COLUMNS.items():
            if isinstance(values, tuple):
                setattr(self, name, self._codes(name, getattr(self, name), values))
        self._check()

    def _codes(self, name: str, col: np.ndarray, values: tuple) -> np.ndarray:
        """``col`` as int8 codes of ``values``; ValueError unless it holds
        integers (or nothing), naming the first row whose code is not one
        of them."""
        if col.dtype.kind not in "iu" and col.size:
            raise ValueError(f"{type(self).__name__} {name} must be integer codes, "
                             f"got dtype {col.dtype}")
        low = -1 if values[-1] is None else 0
        bad = np.flatnonzero((col < low) | (col >= low + len(values)))
        if bad.size:
            raise ValueError(f"{type(self).__name__} row {bad[0]}: {name} code "
                             f"{col[bad[0]]} is not one of {low}..{low + len(values) - 1}")
        return col.astype(np.int8, copy=False)

    def _check(self) -> None:
        """Raise ValueError if the columns break an invariant of the table."""

    @classmethod
    def fields(cls) -> tuple[str, ...]:
        """The column names, in order."""
        return tuple(cls.COLUMNS)

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.fields())

    def take(self, rows):
        """The rows picked by a boolean mask or an index array."""
        return type(self)(*(col[rows] for col in self.columns()))

    def __len__(self) -> int:
        return len(self.columns()[0])

    def __iter__(self):
        """The rows as ``Row`` tuples of Python values, codes decoded.  No
        code of the package reads a table by rows: this stays while
        ``perfbench/checks.py`` sums ``f.qty for f in replay.fills if not
        f.aggressor``, and goes when that check reads columns."""
        columns = [np.asarray(dtype, dtype=object)[col] if isinstance(dtype, tuple) else col
                   for dtype, col in zip(self.COLUMNS.values(), self.columns())]
        return map(self.Row, *(col.tolist() for col in columns))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class EventLog(Table):
    """A log as one numpy column per CSV field, in file order.  ``action``,
    ``side`` and ``aggressor_flag`` are int8 codes: indices into
    :data:`ACTIONS` and :data:`SIDES`, and -1/0/1 for None/False/True."""

    COLUMNS = {"ts_ns": np.int64, "order_id": np.int64, "action": ACTIONS, "side": SIDES,
               "price": np.float64, "qty": np.int64, "aggressor_flag": FLAGS,
               "participant_label": object}


HEADER = EventLog.fields()


# ---------------------------------------------------------------------------
# Replay tables
# ---------------------------------------------------------------------------


class Fills(Table):
    """The execute rows of a log, in feed order."""

    COLUMNS = {"row": np.int64,                 # index of the row in the log
               "lifecycle": np.int64,           # index of the executed order's lifecycle
               "ts_ns": np.int64, "order_id": np.int64,
               "side": SIDES,                   # side of the executed order
               "price": np.float64,             # execution price
               "qty": np.int64, "aggressor": bool,
               "participant_label": object}     # the executed order's label


class Lifecycles(Table):
    """Orders from their add to their terminal event (or the end of the
    log), one per add."""

    COLUMNS = {"order_id": np.int64, "side": SIDES, "add_ts": np.int64, "add_price": np.float64,
               "add_qty": np.int64, "participant_label": object,
               "price": np.float64,             # last resting price
               "n_updates": np.int64, "executed_qty": np.int64,
               "terminal_ts": object,           # None while the order rests
               "terminal_kind": ("canceled", "executed", None)}


class Quotes(Table):
    """The best quotes at the end of each timestamp; nan prices and zero
    quantities on an empty side."""

    COLUMNS = {"ts_ns": np.int64, "bid": np.float64, "ask": np.float64, "bid_qty": np.int64,
               "ask_qty": np.int64}


@dataclass
class Replay:
    lifecycles: Lifecycles                # one per add, in feed order
    fills: Fills                          # one per execute row, in feed order
    quotes: Quotes                        # one per distinct timestamp


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_NUMBERS = {name: dtype for name, dtype in EventLog.COLUMNS.items()
            if dtype in (np.int64, np.float64)}
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
_FIXED = {name: f"{'U' if name == 'aggressor_flag' else 'S'}{width}"
          for name, width in _WIDTH.items()}
_DTYPE = np.dtype([(name, _FIXED.get(name, dtype)) for name, dtype in EventLog.COLUMNS.items()])
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


@contextmanager
def _no_field_limit():
    """The csv module's field size limit lifted, as the C reader has none,
    so a re-read reaches every record it read; then the caller's limit."""
    limit = csv.field_size_limit(sys.maxsize)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


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
        with _no_field_limit():
            prefix, unreadable = _split_at_fault(lines.readlines())
        records = _read(prefix)
    n = len(records)

    def record(i: int) -> tuple[int, list[str]]:
        """(row number, fields) of the ``i``-th nonblank body record."""
        lines.seek(body)
        with _no_field_limit():
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


def float_text(x: float) -> str:
    """The 17-significant-digit text of ``x``, which reads back as ``x`` exactly."""
    return f"{x:.17g}"


class _PriceText(dict):
    """Text of each distinct price, formatted on first sight.
    Zeros are not kept: 0.0 and -0.0 are one key but two texts."""

    def __missing__(self, price: float) -> str:
        text = float_text(price)
        if price:
            self[price] = text
        return text


class _LabelText(dict):
    """CSV field of each distinct participant label (None is empty), quoted
    as :class:`csv.writer` quotes a field holding a comma, a quote or a line
    break."""

    def __missing__(self, label) -> str:
        text = "" if label is None else str(label)
        if any(c in text for c in ',"\r\n'):
            text = '"' + text.replace('"', '""') + '"'
        self[label] = text
        return text


HEADER_LINE = ",".join(HEADER) + "\r\n"
_FLAG_TEXT = ("false", "true", "")             # by flag code, -1 last
#: rows per block of log text
BLOCK_ROWS = 1 << 12


def row_encoder(append):
    """``emit(ts, oid, action, side, price, qty, flag, label)``: ``append``
    the CSV line of one row, with action, side and aggressor flag given as
    their :class:`EventLog` codes.  This is the one writer of the format:
    each distinct price is formatted once, and the line ends in ``\\r\\n``
    as :class:`csv.writer` ends it."""
    price_text, label_text = _PriceText(), _LabelText()

    def emit(ts, oid, action, side, price, qty, flag, label):
        append(f"{ts},{oid},{ACTIONS[action]},{SIDES[side]},{price_text[price]},{qty},"
               f"{_FLAG_TEXT[flag]},{label_text[label]}\r\n")

    return emit


def write_csv(blocks, destination) -> None:
    """Write a log in the canonical schema: :data:`HEADER_LINE`, then
    ``blocks``, its body as text (the ``mbo_text`` of a logged simulation,
    or lines from :func:`row_encoder`)."""
    if isinstance(blocks, Table):
        raise TypeError("write_csv takes the log's text, not a table")
    stream = hasattr(destination, "write")
    with nullcontext(destination) if stream else open(destination, "w", newline="") as out:
        out.write(HEADER_LINE)
        out.writelines(blocks)


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


def _lifecycles(log: EventLog, walk: _Walk) -> tuple[Lifecycles, Fills]:
    """The lifecycles and fills of a walked log without faults."""
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
        order_id=oid[adds], side=log.side[adds], add_ts=ts[adds],
        add_price=price[adds], add_qty=qty[adds], participant_label=label,
        price=price[order[reset[lasts]]], n_updates=updates[lasts] - updates[starts],
        executed_qty=executed[lasts] - executed[starts],
        terminal_ts=np.where(ended, ts[end].astype(object), None),
        terminal_kind=np.where(ended, kind - CANCEL, -1),   # canceled 0, executed 1, open -1
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
    return lifecycles, fills


def reconstruct(log: EventLog) -> Replay:
    """Replay a validated :class:`EventLog`.

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
    if not isinstance(log, EventLog):
        raise TypeError(f"reconstruct takes an EventLog, got {type(log).__name__}")
    columns = log.action, log.order_id, log.side, log.qty
    walk = _walk(*columns, "dead")
    faults = []
    if walk.fault is not None:                 # replay the rows before it, and an over-execute
        row, message, over = walk.fault        # after its FIFO and price checks
        faults.append((row, 3 if over else 0, message))
        walk = _walk(*(col[:row + over] for col in columns), "dead")
    quotes, book_faults = (_book(log, walk) if walk.order.size
                           else (Quotes(*[[]] * len(Quotes.fields())), []))
    faults += book_faults
    if faults:
        raise MboReplayError(min(faults)[2])
    return Replay(*_lifecycles(log, walk), quotes=quotes)
