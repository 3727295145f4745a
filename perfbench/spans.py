"""In-memory spans around the public functions of each ``lobeq`` layer.

The tracer replaces a public function under every name a ``lobeq`` module
binds it to (``lobeq.cli.run_sim`` and ``lobeq.simulator.run`` are the
same function), so callers that look the name up at call time reach the
wrapper, and ``src/`` is not edited.  Methods are wrapped on the class
that defines them.  A target that no longer exists is reported as missing.

A span is ``(id, name, start, end, parent id, run id)``; spans stay in
memory until the benchmark writes them out.  Spans opened on a thread with
nothing open (the sweep's pool threads) are children of the run's root
span.  Calls to hot methods are only counted, under a lock because the
sweep's pool threads update the same counters.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import Counter
from time import perf_counter

# (span name, module, attribute path); attribute paths with a dot are methods
SPANNED = [
    ("simulator.run", "lobeq.simulator", "run"),
    ("simulator.draw_events", "lobeq.simulator", "draw_events"),
    ("kernels.accumulate_pnl", "lobeq.kernels", "accumulate_pnl"),
    ("equilibrium.book_curves", "lobeq.equilibrium", "book_curves"),
    ("equilibrium.shape_tick", "lobeq.equilibrium", "shape_tick"),
    ("equilibrium.spread_continuous", "lobeq.equilibrium", "spread_continuous"),
    ("equilibrium.spread_tick", "lobeq.equilibrium", "spread_tick"),
    ("equilibrium.spread_toxic", "lobeq.equilibrium", "spread_toxic"),
    ("solvers.bisect", "lobeq.solvers", "bisect_decreasing"),
    ("mbo.write_csv", "lobeq.mbo", "write_csv"),
    ("mbo.parse", "lobeq.mbo", "parse"),
    ("mbo.reconstruct", "lobeq.mbo", "reconstruct"),
    ("signature.build_trade_records", "lobeq.signature", "build_trade_records"),
    ("signature.classify", "lobeq.signature", "classify"),
    ("signature.signature_curves", "lobeq.signature", "signature_curves"),
]
COUNTED = [
    ("laws.emax_ratio.calls", "lobeq.laws", "JumpLaw.emax_ratio"),
    ("signature.reference.calls", "lobeq.signature", "QuoteSeries.reference"),
]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):      # a stream, not a path
        return 0


# counts taken from a call's arguments and result: name -> (counter, fn)
def _events(args, _kw, _res):
    return len(args[0])


def _iterations(_args, _kw, res):
    return res.iterations


def _mbo_rows(_args, _kw, res):
    return res.summary.get("n_mbo_rows", 0)


def _records(_args, _kw, res):
    return sum(len(side) for side in res)


def _csv_bytes(args, kw, _res):
    return _file_bytes(args[1] if len(args) > 1 else kw.get("destination"))


def _parsed_bytes(args, kw, _res):
    return _file_bytes(args[0] if args else kw.get("source"))


RESULT_COUNTS = {
    "kernels.accumulate_pnl": ("kernels.events", _events),
    "solvers.bisect": ("solvers.bisect.iters", _iterations),
    "simulator.run": ("simulator.mbo_rows", _mbo_rows),
    "signature.build_trade_records": ("signature.trade_records", _records),
    "mbo.write_csv": ("mbo.csv_bytes", _csv_bytes),
    "mbo.parse": ("mbo.csv_bytes", _parsed_bytes),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()     # (run id, counter name) -> value
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._run_id = 0
        self._root: int | None = None
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name: str, value) -> None:
        with self._lock:
            self.counts[self._run_id, name] += value

    def _spanned(self, name: str, fn):
        counter = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self._run_id))
            if counter is not None:
                try:
                    self._count(counter[0], counter[1](args, kwargs, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass    # the public result changed shape; the count is skipped
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._count(name, 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` as the root span of a new run; returns
        (run id, result)."""
        self._run_id += 1
        sid = next(self._ids)
        self._root = sid
        self._stack().append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = perf_counter()
            self._stack().pop()
            self._root = None
            self.spans.append((sid, name, t0, t1, None, self._run_id))
        return self._run_id, result

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target that does not exist is noted as missing."""
        self.missing.clear()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lobeq" or n.startswith("lobeq."))]
        for name, module, attr in SPANNED:
            self._patch(name, module, attr, modules, self._spanned)
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, modules, self._counted)

    def _patch(self, name, module, attr, modules, make) -> None:
        mod = sys.modules.get(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or not callable(getattr(cls, meth, None)):
                self.missing.append(f"{module}.{attr}")
                return
            # the class and every subclass that overrides the method
            pending, classes = [cls], []
            while pending:
                c = pending.pop()
                if meth in vars(c):
                    classes.append(c)
                pending.extend(c.__subclasses__())
            for c in classes:
                original = vars(c)[meth]
                self._patches.append((c, meth, original))
                setattr(c, meth, make(name, original))
            return
        target = getattr(mod, attr, None)
        if target is None or not callable(target):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(name, target)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is target:
                    self._patches.append((m, key, target))
                    setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------------

    def summarize(self, run_id: int) -> "RunSpans":
        return RunSpans([s for s in self.spans if s[5] == run_id],
                        {k[1]: v for k, v in self.counts.items() if k[0] == run_id})

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, run_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run_id}) + "\n")
            for (run_id, name), value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": value, "run": run_id}) + "\n")
            for name in self.missing:
                fh.write(json.dumps({"missing": name}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class RunSpans:
    """Busy time, self time and counts of the spans of one run."""

    def __init__(self, spans: list[tuple], counts: dict):
        self.spans = spans
        self.counts = counts
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[tuple]] = {}
        for s in spans:
            if s[4] is not None:
                self.children.setdefault(s[4], []).append(s)

    def _named(self, names: set[str]) -> list[tuple]:
        return [s for s in self.spans if s[1] in names]

    def _outermost(self, names: set[str]) -> list[tuple]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        out = []
        for s in self._named(names):
            parent = self.by_id.get(s[4])
            while parent is not None and parent[1] not in names:
                parent = self.by_id.get(parent[4])
            if parent is None:
                out.append(s)
        return out

    def busy(self, *names: str) -> float:
        """Summed duration of the outermost spans of ``names`` (over threads)."""
        return sum(s[3] - s[2] for s in self._outermost(set(names)))

    def calls(self, name: str) -> int:
        return len(self._named({name}))

    def self_time(self, name: str) -> float:
        """Duration minus the union of child spans, summed over ``name``'s spans."""
        total = 0.0
        for s in self._named({name}):
            kids = [(max(c[2], s[2]), min(c[3], s[3])) for c in self.children.get(s[0], [])]
            total += (s[3] - s[2]) - _covered(kids)
        return total

    def count(self, name: str):
        return self.counts.get(name, 0)

