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
  (partial reductions are modifies).  An add, execute or modify of 0
  units is rejected: an order leaves the book by a cancel
* ``aggressor_flag`` marks execute rows belonging to the incoming order
  (their price is the fill price, not the order's resting price); empty
  when not applicable
* ``participant_label`` is an optional ground-truth tag (simulator
  exports carry IT/NT/IMM/NMM), empty for real feeds

:func:`parse` is the one judge of a log's rows: their fields, timestamps
and order references.  :func:`reconstruct` replays only a log that parse
returned.  Replay enforces time (FIFO) priority within each price level
and rejects a book left crossed or locked at the end of a timestamp; it
does not check priority across levels.  It reconstructs every order's
lifecycle together with the best quotes of each timestamp.
A lifecycle's ``terminal_ts`` is an int64, 0 for an order that still
rests, which ``terminal_kind == -1`` marks.

The read side is array code from end to end.  An :class:`EventLog` holds
``action`` and ``side`` as int8 indices into :data:`ACTIONS` and
:data:`SIDES` and ``aggressor_flag`` as an int8 of -1/0/1 for
None/False/True; each table declares its columns, dtypes and codes once,
in its ``COLUMNS``.  The write side is one row encoder
(:func:`row_encoder`), which puts one row's CSV line together from its
timestamp, order id, price text and quantity and the fixed text of its
kind (:func:`row_kind`: the head ``,<action>,<side>,`` and the tail
``,<flag>,<label>``, made from the codes): the logged simulator makes each
kind's text once and each price's once, and emits its rows through it,
and :func:`write_csv` writes the header and the text to a file.  :func:`parse`
reads the body in typed C passes of :data:`CHUNK_ROWS` records from one
stream, the three coded fields and the label as fixed-width text it
compares as arrays, and checks field domains as array masks, or with
:func:`_row_fault` on each record as text when the body holds what the C
reader skips (``\x1c``-``\x1f``, NUL).  The label column holds one
``str`` per distinct label, shared by every row that carries it.  One
order walk (:func:`_walk`: a stable sort by order id, then segmented
cumulative sums) gives every row its lifecycle and its order's resting
quantity; parse makes it once, with its reference checks, the log parse
returns keeps it, and :func:`reconstruct` builds fills, lifecycles and
quotes from its arrays.
"""

from __future__ import annotations

import csv
import math
import shutil
import sys
import tempfile
import warnings
from collections import defaultdict, namedtuple
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
    "row_kind",
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
    _walk: _Walk | None = None               # parse's order walk, which reconstruct reads


HEADER = EventLog.fields()


# ---------------------------------------------------------------------------
# Replay tables
# ---------------------------------------------------------------------------


class Fills(Table):
    """The execute rows of a log, in feed order.  The executed order's id,
    side and label are its lifecycle's: ``lifecycles.side[fills.lifecycle]``."""

    COLUMNS = {"row": np.int64,                 # index of the row in the log
               "lifecycle": np.int64,           # index of the executed order's lifecycle
               "ts_ns": np.int64, "price": np.float64,     # execution time and price
               "qty": np.int64, "aggressor": bool}


class Lifecycles(Table):
    """Orders from their add to their terminal event (or the end of the
    log), one per add."""

    COLUMNS = {"order_id": np.int64, "side": SIDES, "add_ts": np.int64, "add_price": np.float64,
               "add_qty": np.int64, "participant_label": object,
               "price": np.float64,             # last resting price
               "n_updates": np.int64, "executed_qty": np.int64,
               "terminal_ts": np.int64,         # 0 while the order rests (terminal_kind -1)
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
#: a label is read at this fixed width: one of fewer characters, each
#: below U+0100, packs into one uint64 key, and one that fills it is re-read
_LABEL_WIDTH = 8
#: one body record as the C reader types it.  A coded field is fixed-width
#: text one character wider than its longest spelling, so that a text that
#: fills it (and may have been cut) matches none.  Action and side are
#: bytes; the flag is str, as a flag may be padded with any whitespace; the
#: label is str, as bytes hold only the first 256 code points
_FIXED = {**{name: f"{'U' if name == 'aggressor_flag' else 'S'}{width}"
             for name, width in _WIDTH.items()},
          "participant_label": f"U{_LABEL_WIDTH}"}
_DTYPE = np.dtype([(name, _FIXED.get(name, dtype)) for name, dtype in EventLog.COLUMNS.items()])
_TEXT = np.dtype([(name, object) for name in HEADER])
#: separators the C reader skips around a number as whitespace, and Python's
#: int/float do not; and NUL, which a fixed-width text drops at its end
_ODD = "\x1c\x1d\x1e\x1f\x00"
#: the code of a coded field's text that is none of its values
_BAD = -2
#: body records per C read: one chunk's records are parse's only transient
#: that grows with the file, besides the columns and the order walk
CHUNK_ROWS = 1 << 14


def _read(lines, dtype=_DTYPE, max_rows=None) -> np.ndarray:
    """The CSV records of ``lines`` (an iterable of text lines), at most
    ``max_rows`` of them, in one C pass, blank lines skipped; ValueError if
    a record does not read.  A stream is left after the last record read."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          ndmin=1, max_rows=max_rows)


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


def _split_at_fault(lines, body: int, done: int) -> tuple[list[str], list[str]]:
    """(the lines of the records before the first the C reader rejects,
    that record's lines), where the rejected record is among the
    :data:`CHUNK_ROWS` nonblank records after the first ``done`` of the body
    at offset ``body`` of the stream ``lines``; the lines of earlier records
    are not kept.  Records read independently, so the first bad one is found
    by halving windows of whole records."""
    lines.seek(body)
    kept, starts, at = [], [], 0

    def keep(line):
        kept.append(line)
        return line

    for _, row in _numbered(csv.reader(map(keep, lines)), 2):
        if row and done:                     # a record of an earlier chunk
            done -= 1
            kept.clear()
        elif row:
            starts.append(at)
            if len(starts) > CHUNK_ROWS:
                break
        at = len(kept)
    else:
        starts.append(len(kept))
    lo, hi = 0, len(starts) - 1              # the first bad record is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _read(kept[starts[lo]:starts[mid]])
            lo = mid
        except ValueError:
            hi = mid
    return kept[:starts[lo]], kept[starts[lo]:starts[lo + 1]]


def _unreadable_numbers(record: list[str]) -> set[str]:
    """Names of the numeric fields of one record the C reader rejects."""
    bad = set()
    for name in _NUMBERS:
        try:
            _read(record, np.dtype([(f, _DTYPE[f] if f == name else object) for f in HEADER]))
        except ValueError:
            bad.add(name)
    return bad


def _row_fault(row: list[str], unreadable=()) -> str | None:
    """The per-row checks of one CSV record in their order: the message of
    the first that fails, without its row number, or None.  A number Python
    reads is still bad when its field is in ``unreadable`` (the C reader
    rejects it)."""
    if len(row) != len(HEADER):
        return f"expected {len(HEADER)} fields, got {len(row)}"

    def number(i, cast):
        value = cast(row[i])
        if HEADER[i] in unreadable:
            raise ValueError(f"could not convert {row[i]!r} to {_DTYPE[HEADER[i]]}")
        return value

    try:
        number(0, int)
        number(1, int)
    except ValueError as exc:
        return str(exc)
    if row[2] not in ACTIONS:
        return f"unknown action {row[2]!r}"
    if row[3] not in SIDES:
        return f"unknown side {row[3]!r}"
    try:
        price = number(4, float)
        qty = number(5, int)
    except ValueError as exc:
        return str(exc)
    if qty < 0:
        return f"negative qty {qty}"
    if qty == 0 and row[2] != "cancel":
        return f"zero qty on {row[2]}" + ("; use cancel" if row[2] == "modify" else "")
    if not math.isfinite(price):
        return f"price {row[4]!r} is not finite"
    if row[6].strip().lower() not in _FLAGS:
        return f"bad aggressor_flag {row[6]!r}"
    return None


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


def _labels(texts: np.ndarray, shared: dict) -> np.ndarray:
    """The labels of body records (fixed-width or exact text) as an object
    column that holds one ``str`` per distinct label, the one ``shared``
    maps its text to (it maps "" to None, and gains each new label)."""
    if texts.dtype == object:
        return np.array([shared.setdefault(t, t) for t in texts.tolist()], dtype=object)
    chars = texts.view(np.uint32).reshape(texts.size, _LABEL_WIDTH)
    keys = texts                             # a label of 8 latin-1 bytes is one uint64
    if texts.size and chars.max() < 256:
        keys = chars.astype(np.uint8).view(np.uint64).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([shared.setdefault(t, t) for t in texts[first].tolist()],
                    dtype=object)[inverse]


def parse(source, tick: float | None = None) -> EventLog:
    """Read and validate a log; returns an :class:`EventLog` of read-only
    numpy columns in file order, which keeps the order walk its checks
    made: :func:`reconstruct` replays from that walk, and replays no log
    that parse did not return.

    Validation: exact header, field domains (finite prices), nondecreasing
    timestamps, referential integrity (modify/cancel/execute must reference
    a live order, and a modify keeps the order's side), execute volume
    within the resting quantity, and optional tick-multiple price checks.
    Errors name the first offending row, counting CSV records from the
    header as row 1, blank ones included.  A ``tick`` must be positive
    and finite.  Numbers are read by numpy's C reader, which rejects some
    spellings Python's int/float accept (digit separators such as
    ``5_000``); those rows are rejected too.

    The body is read :data:`CHUNK_ROWS` records at a time, and each
    distinct label is one ``str`` that every row carrying it shares.  A
    source that cannot seek (a pipe or FIFO) is first copied in blocks to a
    temporary file, as parse reads the body more than once: that needs disk
    room for the log, not memory.
    """
    if tick is not None and not 0.0 < tick < math.inf:
        raise ValueError(f"tick must be positive and finite, got {tick}")
    with nullcontext(source) if hasattr(source, "read") else open(source, newline="") as fh:
        if fh.seekable():
            return _parse_lines(fh, tick)
        # surrogatepass writes back any str the source decoded to
        with tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogatepass",
                                    newline="") as copy:
            shutil.copyfileobj(fh, copy, 1 << 20)
            copy.seek(0)
            return _parse_lines(copy, tick)


def _parse_lines(lines, tick: float | None) -> EventLog:
    """:func:`parse` of a seekable text stream: read once in chunks,
    re-read only to phrase an error or to read texts a fixed width may
    hide."""
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

    parts, shared, n, unreadable, filled = defaultdict(list), {"": None}, 0, None, False
    while True:
        try:
            records = _read(lines, max_rows=CHUNK_ROWS)
        except ValueError:                   # find the record, keep what reads before it
            with _no_field_limit():
                prefix, unreadable = _split_at_fault(lines, body, n)
            records = _read(prefix)
        n += len(records)
        for name, col in zip((*_NUMBERS, *_SPELLINGS), (*(records[name] for name in _NUMBERS),
                                                       *_text_codes(records))):
            parts[name].append(np.ascontiguousarray(col))
        labels = np.ascontiguousarray(records["participant_label"])
        # a label whose last character is set fills the width, and may have been cut
        filled |= bool(np.any(labels.view(np.uint32).reshape(-1, _LABEL_WIDTH)[:, -1]))
        parts["participant_label"].append(_labels(labels, shared))
        if unreadable is not None or len(records) < CHUNK_ROWS:
            break
    del records, labels
    ts, oid, price, qty, act, side, flag, label = (
        np.concatenate(parts.pop(name)) for name in (*_NUMBERS, *_SPELLINGS, "participant_label"))

    def record(i: int) -> tuple[int, list[str]]:
        """(row number, fields) of the ``i``-th nonblank body record."""
        lines.seek(body)
        with _no_field_limit():
            rows = ((lineno, row) for lineno, row in _numbered(csv.reader(lines), 2) if row)
            return next(islice(rows, i, None))

    domain = np.zeros(n, dtype=bool) if odd else None
    if odd or filled or np.any(flag == _BAD):   # texts a fixed width may hide: read them whole
        lines.seek(body)
        at = 0
        while at < n:
            texts = _read(lines, _TEXT, min(CHUNK_ROWS, n - at))
            end = at + len(texts)
            act[at:end], side[at:end], flag[at:end] = _text_codes(texts)
            label[at:end] = _labels(texts["participant_label"], shared)
            if odd:                          # the C reader may read a number Python does not
                domain[at:end] = [_row_fault(row) is not None for row in texts.tolist()]
            at = end
            del texts
    if not odd:
        domain = ((act == _BAD) | (side == _BAD) | (flag == _BAD) | (qty < 0)
                  | ((qty == 0) & (act != CANCEL)) | ~np.isfinite(price))
    backwards = np.zeros(n, dtype=bool)
    backwards[1:] = ts[1:] < ts[:-1]
    faults = [domain, backwards]
    if tick is not None:
        # a non-finite price is a domain fault already; a quotient past the
        # float range, like any above 2**53, is a whole number of ticks
        with np.errstate(invalid="ignore", over="ignore"):
            steps = price / tick
            steps -= np.round(steps)
            faults.append(np.abs(steps, out=steps) > 1e-6)
            del steps
    bad = np.flatnonzero(np.logical_or.reduce(faults))
    first = int(bad[0]) if bad.size else n

    walk = _walk(act[:first], oid[:first], side[:first], qty[:first])
    if walk.fault is not None:
        i, message = walk.fault
        raise MboParseError(f"row {record(i)[0]}: {message}")
    if first < n:
        lineno, row = record(first)
        if domain[first]:
            raise MboParseError(f"row {lineno}: {_row_fault(row)}")
        if backwards[first]:
            raise MboParseError(f"row {lineno}: timestamp {int(ts[first])} goes backwards")
        raise MboParseError(f"row {lineno}: price {float(price[first])} "
                            f"is not a multiple of tick {tick}")
    if unreadable is not None:
        lineno, row = record(n)
        message = _row_fault(row, _unreadable_numbers(unreadable)) or "malformed record"
        raise MboParseError(f"row {lineno}: {message}")
    log = EventLog(ts, oid, act, side, price, qty, flag, label)
    for col in log.columns():                # so that the kept walk cannot go stale
        col.flags.writeable = False
    log._walk = walk
    return log


def float_text(x: float) -> str:
    """The 17-significant-digit text of ``x``, which reads back as ``x`` exactly."""
    return f"{x:.17g}"


def _label_text(label) -> str:
    """CSV field of a participant label (None is empty), quoted as
    :class:`csv.writer` quotes a field holding a comma, a quote or a line
    break."""
    text = "" if label is None else str(label)
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


HEADER_LINE = ",".join(HEADER) + "\r\n"
_FLAG_TEXT = ("false", "true", "")             # by flag code, -1 last
#: rows per block of log text
BLOCK_ROWS = 1 << 12


def row_kind(action: int, side: int, flag: int, label) -> tuple[str, str]:
    """``(head, tail)``, the fixed text of every row of one kind, given
    action, side and aggressor flag as their :class:`EventLog` codes: the
    head ``,<action>,<side>,`` and the tail ``,<flag>,<label>\\r\\n``,
    the label quoted as :class:`csv.writer` quotes it, which
    :func:`row_encoder` puts around a row's own fields."""
    return (f",{ACTIONS[action]},{SIDES[side]},",
            f",{_FLAG_TEXT[flag]},{_label_text(label)}\r\n")


def row_encoder(append):
    """``emit(ts, oid, kind, price, qty)``: ``append`` the CSV line of one
    row, with ``ts``, ``oid`` and ``qty`` as integers or their text,
    ``kind`` from :func:`row_kind` and ``price`` as its :func:`float_text`.
    This is the one writer of the format; a caller that writes many rows
    makes the text of each timestamp, price and kind once.  The line ends
    in ``\\r\\n`` as :class:`csv.writer` ends it."""

    def emit(ts, oid, kind, price, qty):
        head, tail = kind
        append(f"{ts},{oid}{head}{price},{qty}{tail}")

    return emit


def write_csv(blocks, path) -> None:
    """Write a log in the canonical schema to the file at ``path``:
    :data:`HEADER_LINE`, then ``blocks``, its body as text (lines from
    :func:`row_encoder`, which a logged simulation streams here a block at
    a time).  ``path`` is opened once the first block is made, so an error
    before that leaves the file as it was, or absent."""
    blocks = iter(blocks)
    first = next(blocks, "")
    with open(path, "w", newline="") as out:
        out.write(HEADER_LINE)
        out.write(first)
        del first                            # not held while the later blocks are made
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
    fault: tuple | None   # (row, message) of the first reference fault


def _walk(act, oid, side, qty) -> _Walk:
    """The walk of the rows with these columns, which :func:`parse` makes
    and keeps.  Its fault is at the first row naming an order it may not:
    a modify, cancel or execute needs a live order on the same side, an
    execute at most its resting quantity, and an add a new order id.
    Every check of a row reads only the rows of its order before it, so
    the first failing row is the one a sequential walk would stop at."""
    m = act.size
    order = np.argsort(oid, kind="stable").astype(np.int32)
    a, q, o = act[order], qty[order], oid[order]
    add, exe = a == ADD, a == EXECUTE
    reset = np.where(add | (a == MODIFY), np.arange(m, dtype=np.int32), 0)
    np.maximum.accumulate(reset, out=reset)
    done = np.where(exe, q, 0)
    np.cumsum(done, out=done)                    # executed up to each position
    rest = q[reset]
    del q
    rest -= done
    rest += done[reset]
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
        name, oid_p = ACTIONS[a[p]], int(o[p])
        if add[p]:
            message = f"order {oid_p} added twice"
        elif not live[p]:
            message = f"{name} references unknown order {oid_p}"
        elif moved[p] and a[p] == MODIFY:
            message = f"modify moves order {oid_p} from {SIDES[s[p - 1]]} to {SIDES[s[p]]}"
        elif moved[p]:
            message = (f"{name} on {SIDES[s[p]]} names order {oid_p}, "
                       f"which rests on {SIDES[s[p - 1]]}")
        else:
            q_p = int(qty[order[p]])
            message = f"execute qty {q_p} exceeds resting {q_p + int(rest[p])} on order {oid_p}"
        fault = (int(order[p]), message)
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
    """The best quotes at the end of each timestamp of a nonempty log, and
    the first FIFO, passive price, cancel quantity and crossed-book fault
    in it as (row, rank of the check within a row, message).

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
    del xp, ahead_of, by, px, held

    # the volume each row moves at its level before it, and each entry at its own
    moved = np.flatnonzero(~add)
    k = moved.size
    change = np.concatenate([q[moved], q[entry]])
    ex, own = exe[moved], mod[moved] & ~entry[moved]    # an execute; a modify in its place
    change[:k][~(ex | own)] = 0
    np.negative(change[:k], out=change[:k], where=ex)
    lost = before[moved]                                # what rested before, where not an execute
    lost[ex] = 0
    change[:k] -= lost
    del ex, own, lost, q, before
    key = np.concatenate([level[stint[moved] - entry[moved]], level])
    key *= 2 * m
    key[:k] += 2 * order[moved]
    key[k:] += 2 * e_row + 1
    del moved, level, stint, add, mod, cancel, exe, entry
    by_key = np.argsort(key)
    key = key[by_key]
    volume = change[by_key]
    del by_key, change
    np.cumsum(volume, out=volume)

    ends = np.append(np.flatnonzero(ts[:-1] < ts[1:]), m - 1)   # the last row of each timestamp
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
    updates = np.cumsum(a == MODIFY, dtype=np.int32)
    executed = qty[order]
    executed[a != EXECUTE] = 0
    np.cumsum(executed, out=executed)
    kind = a[lasts]
    ended = (kind == CANCEL) | ((kind == EXECUTE) & (rest[lasts] == 0))
    lifecycles = Lifecycles(
        order_id=oid[adds], side=log.side[adds], add_ts=ts[adds],
        add_price=price[adds], add_qty=qty[adds], participant_label=log.participant_label[adds],
        price=price[order[reset[lasts]]], n_updates=updates[lasts] - updates[starts],
        executed_qty=executed[lasts] - executed[starts],
        terminal_ts=np.where(ended, ts[end], 0),
        terminal_kind=np.where(ended, kind - CANCEL, -1),   # canceled 0, executed 1, open -1
    )
    del updates, executed
    lifecycle = np.empty(n, dtype=np.int32)                # of each row
    rank = np.empty(feed.size, dtype=np.int32)
    rank[feed] = np.arange(feed.size, dtype=np.int32)
    added = np.cumsum(a == ADD, dtype=np.int32)
    added -= 1
    lifecycle[order] = rank[added]
    del added
    executes = np.flatnonzero(log.action == EXECUTE)
    lifecycle = lifecycle[executes]
    fills = Fills(row=executes, lifecycle=lifecycle, ts_ns=ts[executes],
                  price=price[executes], qty=qty[executes],
                  aggressor=log.aggressor_flag[executes] == 1)
    return lifecycles, fills


def reconstruct(log: EventLog) -> Replay:
    """Replay a log that :func:`parse` returned.

    Enforces time priority within a price level (an execute must consume
    the front of its level's queue), rebuilds every order lifecycle, and
    records a best-quote snapshot per distinct timestamp: the state after
    the last row carrying that timestamp, i.e. the state prevailing until
    the next one.  A book left crossed or locked at the end of a timestamp
    (best bid >= best ask) is rejected, naming the timestamp and the event.
    Priority across levels is not checked: an execute of an order resting
    behind a better price on its side is accepted.

    The replay reads the order walk that parse kept (see :func:`_book`), so
    parse is the one judge of a row's fields, timestamps and order
    references.  Any other input, an :class:`EventLog` built from columns
    or by ``take`` included, is a TypeError.  The error is the one at the
    first failing row, as a sequential replay meets it.
    """
    walk = log._walk if isinstance(log, EventLog) else None
    if walk is None:
        got = "an EventLog built another way" if isinstance(log, EventLog) else type(log).__name__
        raise TypeError(f"reconstruct replays only a log that parse returned, got {got}")
    quotes, faults = (_book(log, walk) if len(log)
                      else (Quotes(*[[]] * len(Quotes.fields())), []))
    if faults:
        raise MboReplayError(min(faults)[2])
    return Replay(*_lifecycles(log, walk), quotes=quotes)
