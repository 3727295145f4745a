"""Tables from rows, and a log's text from its columns: the row side of
``lobeq.mbo.Table``, for tests.

A ``lobeq`` table is built from columns, and its coded fields from
integer codes only.  Tests and oracles write logs and expected tables as
rows of each table's ``Row`` type (``EventLog.Row``, ``Fills.Row``, ...);
``from_rows`` builds the table of such rows, encoding the value of each
coded field to its code.  A table is compared with rows through its
iteration: ``list(table) == rows``.  ``event_log`` is ``from_rows`` for
an ``EventLog``, and ``csv_body`` writes a log's rows through
``lobeq.mbo.row_encoder``, each with its own kind and price text.
``parsed`` writes rows so and parses the text: ``lobeq.mbo.reconstruct``
replays only a log that ``parse`` returned.  ``logged_run`` runs a logged
simulation into a temporary file and reads its log back.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import numpy as np

from lobeq.mbo import HEADER_LINE, EventLog, float_text, parse, row_encoder, row_kind
from lobeq.simulator import run


def from_rows(cls, rows):
    """The ``cls`` table of an iterable of ``cls.Row`` rows (a ``cls``
    table as is).  A coded field's values are encoded with the tuple of
    values of its ``cls.COLUMNS`` entry; ValueError naming the first row
    whose value is not one of them."""
    if isinstance(rows, cls):
        return rows
    rows = list(rows)
    columns = {name: [getattr(row, name) for row in rows] for name in cls.fields()}
    for name, values in cls.COLUMNS.items():
        if not isinstance(values, tuple):
            continue
        index = {value: code for code, value in enumerate(values)}
        if values[-1] is None:
            index[None] = -1
        codes = np.empty(len(rows), dtype=np.int8)
        for i, value in enumerate(columns[name]):
            try:
                codes[i] = index[value]
            except (KeyError, TypeError):
                raise ValueError(f"{cls.__name__} row {i}: {name} {value!r} "
                                 f"is not one of {values}") from None
        columns[name] = codes
    return cls(**columns)


def event_log(rows) -> EventLog:
    """The :class:`EventLog` of ``EventLog.Row`` rows (an ``EventLog`` as is)."""
    return from_rows(EventLog, rows)


def csv_body(log: EventLog) -> str:
    """The CSV body of ``log``, every row through :func:`row_encoder`."""
    lines = []
    emit = row_encoder(lines.append)
    for ts, oid, action, side, price, qty, flag, label in zip(
            *(col.tolist() for col in log.columns())):
        emit(ts, oid, row_kind(action, side, flag, label), float_text(price), qty)
    return "".join(lines)


def parsed(rows, tick=None) -> EventLog:
    """``parse`` of the CSV text of ``EventLog.Row`` rows (or of an
    ``EventLog``), written by :func:`csv_body`."""
    return parse(io.StringIO(HEADER_LINE + csv_body(event_log(rows)), newline=""), tick)


def logged_run(cfg):
    """``lobeq.simulator.run`` of a ``record_log`` config, its log written
    to a temporary file: the result, the file's text and its ``parse``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mbo.csv"
        result = run(cfg, log=path)
        return result, path.read_bytes().decode(), parse(path)
