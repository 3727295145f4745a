"""Tables from rows: the row side of ``lobeq.mbo.Table``, for tests.

A ``lobeq`` table is built from columns, and its coded fields from
integer codes only.  Tests and oracles write logs and expected tables as
rows (``MboEvent``, ``Fill``, ``OrderLifecycle``, ``Quote``, a trade
row); ``from_rows`` builds the table of such rows, encoding the value of
each coded field to its code.  A table is compared with rows through its
iteration: ``list(table) == rows``.  ``event_log`` is ``from_rows`` for
an ``EventLog`` of ``MboEvent`` rows.
"""

from __future__ import annotations

import numpy as np

from lobeq.mbo import EventLog


def from_rows(cls, rows):
    """The ``cls`` table of an iterable of ``cls.ROW`` rows (a ``cls``
    table as is).  A coded field's values are encoded with ``cls.CODES``;
    ValueError naming the first row whose value is not one of them."""
    if isinstance(rows, cls):
        return rows
    rows = list(rows)
    columns = {name: [getattr(row, name) for row in rows] for name in cls.fields()}
    for name, values in cls.CODES.items():
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
    """The :class:`EventLog` of ``MboEvent`` rows (an ``EventLog`` as is)."""
    return from_rows(EventLog, rows)
