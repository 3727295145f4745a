"""Command-line surface: reproducible runs driven by JSON configs.

Commands::

    lobeq shape     --config cfg.json --out DIR
    lobeq spread    --config cfg.json --out DIR
    lobeq simulate  --config cfg.json --out DIR [--seed N]
    lobeq signature --config cfg.json --out DIR
    lobeq sweep     --config cfg.json --out DIR

Flags only select the command, config path, output directory and an
optional seed override; everything else lives in the config document so a
run can be reproduced from its manifest alone.  The config root holds only
the sections its command reads, plus ``seed`` and ``out``; any other key
is rejected.  A command that succeeds writes its outputs and then
``manifest.json``, which echoes the config as given plus the seed the run
used and lists the outputs.  Each is staged: written to a temporary in the
output directory, and renamed into place, in the manifest's order, only
once every output is complete.  A command that fails removes its
temporaries and any directory it made, so it leaves the output directory as
it was.  Numeric CSV output is rendered with 17 significant digits so
values round-trip exactly.

A config error, a config nested too deeply to read and a size too large
to allocate are each printed as ``lobeq <command>: <message>`` and exit 2.
A config error names its section once: ``config``, ``params``, ``multi``,
``multi: source <k>``, ``signature cluster <i>`` or a law record
(``params: jump law 'pareto'``).
A section named like its command (``shape``, ``simulate``, ``signature``,
``sweep``) adds no name of its own, since the command already names it.

``LOB_LOG_LEVEL`` in {error, info, debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .equilibrium import (
    JumpSource,
    ModelParams,
    MultiSourceParams,
    ParamGrid,
    SolverError,
    ZeroSpreadRegime,
    book_curves,
    shape_continuous,
    shape_multi,
    shape_tick,
    solve_spreads,
    spread,
    theta_bar,
)
from .laws import Exponential, LaplaceVolume, NormalVolume, Pareto, PointMass
from .mbo import EXECUTE, float_text, parse as parse_mbo, reconstruct
from .signature import (
    REFERENCES,
    UNDEFINED_CLUSTER,
    ClusterSpec,
    QuoteSeries,
    build_trade_records,
    classify,
    signature_curves,
)
from .simulator import LevelPnl, SimConfig, run as run_sim

log = logging.getLogger("lobeq")


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return float_text(value)
    return str(value)


def _number(value, what: str, cast=float):
    """``cast(value)`` of a JSON number; anything else (null, a string, a
    boolean, a list) is a ConfigError naming ``what``, and so is an
    infinite or nan integer or a fractional number for an integer (an
    integral one such as JSON ``1e5`` is accepted)."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = cast(value)
        except (ValueError, OverflowError):             # int() of inf or nan
            pass
        else:
            if cast is not int or number == value:
                return number
    kind = "an integer" if cast is int else "a number"
    raise ConfigError(f"{what} must be {kind}, got {value!r}")


_REQUIRED = object()

# tagged law records: family -> {"type": law class}; a record's keys are the class's fields
_LAWS = {
    "jump": {"pareto": Pareto, "exponential": Exponential, "pointmass": PointMass},
    "volume": {"normal": NormalVolume, "laplace": LaplaceVolume},
}


class _Section:
    """One JSON object of the config, read key by key.

    ``where`` starts every message: the section's name and ": ", or ""
    for a section named like its command, which ``main`` already names.
    Construction rejects a value that is not an object and, given
    ``keys``, any key outside them; ``build`` re-raises a constructor's
    error with ``where``.
    """

    def __init__(self, cfg, where: str, keys=None):
        if not isinstance(cfg, dict):
            raise ConfigError(f"{where}expected a JSON object, got {cfg!r}")
        self.cfg = cfg
        self.where = where
        if keys is not None:
            self.only(keys)

    def only(self, keys) -> None:
        extra = set(self.cfg) - set(keys)
        if extra:
            raise self.fail(f"unknown keys {sorted(extra)}")

    def fail(self, message: str) -> ConfigError:
        return ConfigError(self.where + message)

    def get(self, key: str, default=_REQUIRED):
        if key in self.cfg:
            return self.cfg[key]
        if default is _REQUIRED:
            raise self.fail(f"missing required key {key!r}")
        return default

    def section(self, key: str, where: str, keys=None) -> _Section:
        return _Section(self.get(key), where, keys)

    def sections(self, key: str, name: str, keys) -> list[_Section]:
        """The list under ``key``, its ``i``-th object read as "``name`` i"."""
        items = self.get(key)
        if not isinstance(items, list):
            raise self.fail(f"{key} must be a list, got {items!r}")
        if not items:
            raise self.fail(f"{key} must not be empty")
        return [_Section(item, f"{name} {i}: ", keys) for i, item in enumerate(items)]

    def number(self, key: str, default=_REQUIRED, cast=float):
        """The number under ``key``; with a default of None, a null reads
        as an absent key."""
        value = self.get(key, default)
        if value is None and default is None:
            return None
        return _number(value, self.where + key, cast)

    def path(self, key: str, default=_REQUIRED):
        """The path string under ``key``; as for :meth:`number`, a null may read as absent."""
        value = self.get(key, default)
        if not (isinstance(value, str) or value is None and default is None):
            raise self.fail(f"{key} must be a path string, got {value!r}")
        return value

    def present(self, keys, cast=float) -> dict:
        """The numbers under those of ``keys`` that are present, so that the
        constructor they are passed to supplies its own defaults."""
        return {key: self.number(key, cast=cast) for key in keys if key in self.cfg}

    def numbers(self, key: str, default=_REQUIRED, allow_empty=False) -> list[float]:
        values = self.get(key, default)
        if not isinstance(values, list):
            raise self.fail(f"{key} must be a list of numbers, got {values!r}")
        if not values and not allow_empty:
            raise self.fail(f"{key} must not be empty")
        return [_number(v, f"{self.where}{key}[{i}]") for i, v in enumerate(values)]

    def law(self, family: str):
        """The law of the tagged record under ``family`` ("jump" or
        "volume"), its fields read as the section "<family> law '<type>'"."""
        kinds = _LAWS[family]
        kind = self.section(family, f"{self.where}{family} law: ").get("type")
        if not isinstance(kind, str) or kind not in kinds:
            raise self.fail(f"unknown {family} law type {kind!r}; expected one of {sorted(kinds)}")
        cls = kinds[kind]
        fields = [field.name for field in dataclasses.fields(cls)]
        record = self.section(family, f"{self.where}{family} law {kind!r}: ", ("type", *fields))
        return record.build(cls, **{name: record.number(name) for name in fields})

    def build(self, cls, **kwargs):
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise self.fail(str(exc)) from None


def _params(root: _Section) -> ModelParams:
    p = root.section("params", "params: ", ("r", "f", "jump", "volume", "lambda_i", "lambda_u",
                                            "theta", "rho", "tick", "offset_d"))
    # r or both intensities may be absent or null: ModelParams derives one from the other
    rates = {key: p.number(key, None) for key in ("r", "lambda_i", "lambda_u")}
    return p.build(ModelParams, **rates, f=p.number("f"), jump=p.law("jump"),
                   volume=p.law("volume"), **p.present(("theta", "rho", "tick", "offset_d")))


def _multi(root: _Section) -> MultiSourceParams:
    multi = root.section("multi", "multi: ", ("sources", "volume"))
    sources = [s.build(JumpSource, r=s.number("r"), f=s.number("f"), jump=s.law("jump"))
               for s in multi.sections("sources", "multi: source", ("r", "f", "jump"))]
    return multi.build(MultiSourceParams, sources=sources, volume=multi.law("volume"))


def _grid(shape: _Section) -> np.ndarray:
    if "x_grid" in shape.cfg:
        clash = sorted({"x_min", "x_max", "n_points"} & set(shape.cfg))
        if clash:
            raise shape.fail(f"x_grid excludes {clash}")
        return np.asarray(shape.numbers("x_grid"), dtype=float)
    lo, hi = shape.number("x_min"), shape.number("x_max")
    n = shape.number("n_points", cast=int)
    if not (0.0 < lo < hi and n >= 2):
        raise shape.fail("need 0 < x_min < x_max and n_points >= 2")
    return np.linspace(lo, hi, n)


def _write(path: Path, content, sort_keys: bool = False) -> None:
    """Write one output, by its suffix: a ``.json`` document, or a CSV
    table given as column name -> column (None is a blank cell)."""
    with open(path, "w") as fh:
        if path.suffix == ".json":
            json.dump(content, fh, indent=2, sort_keys=sort_keys)
            fh.write("\n")
        else:
            fh.write(",".join(content) + "\n")
            for row in zip(*content.values()):
                fh.write(",".join(map(_fmt, row)) + "\n")


class _Staging:
    """The temporaries of one run's outputs.

    :meth:`path` gives each output its own name in a hidden temporary
    directory inside the output directory, made on first use together with
    the output directory and any missing parents.  :meth:`commit` renames
    the outputs into place.  Leaving the ``with`` block removes the
    temporary directory and, on an error, every directory this run made, so
    a failed command leaves the output directory as it was.
    """

    def __init__(self, out: Path):
        self.out = out
        self.made: list[Path] = []        # directories this run made, deepest first
        self.tmp: Path | None = None

    def path(self, name: str) -> Path:
        if self.tmp is None:
            self.made = [d for d in (self.out, *self.out.parents) if not d.exists()]
            self.out.mkdir(parents=True, exist_ok=True)
            self.tmp = Path(tempfile.mkdtemp(prefix=".lobeq-", dir=self.out))
        return self.tmp / name

    def commit(self, names) -> None:
        for name in names:
            os.replace(self.tmp / name, self.out / name)

    def __enter__(self) -> _Staging:
        return self

    def __exit__(self, error, *_) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
        if error is not None:
            for made in self.made:        # stops at one that holds more than this run's
                try:
                    made.rmdir()
                except OSError:
                    break


def _stale_outputs(manifest: Path, written) -> list[str]:
    """Bare file names that an earlier run's ``manifest`` lists and this
    run did not write; none when that manifest is missing or does not
    parse."""
    try:
        listed = json.loads(manifest.read_text())["outputs"]
    except (OSError, ValueError, TypeError, KeyError):
        return []
    if not isinstance(listed, list):
        return []
    keep = {*written, manifest.name, "", ".."}
    return [name for name in listed
            if isinstance(name, str) and name not in keep and Path(name).name == name]


# ---------------------------------------------------------------------------
# Commands: each returns its outputs, file name -> content, for main to write.
# An output a command writes itself goes to ``stage(name)`` and maps to None.
# ---------------------------------------------------------------------------


def cmd_shape(root: _Section, seed, stage) -> dict:
    shape = root.section("shape", "")
    variant = shape.get("variant")
    if variant not in ("multi", "tick", "continuous", "toxic"):
        raise shape.fail(f"unknown variant {variant!r}")
    shape.only(("variant", "n_levels") if variant == "tick"
               else ("variant", "x_grid", "x_min", "x_max", "n_points"))

    p = None if variant == "multi" else _params(root)
    if variant == "multi":
        book = shape_multi(_multi(root), _grid(shape))
    elif variant == "tick":
        book = shape_tick(p, shape.number("n_levels", cast=int))
    else:
        book = shape_continuous(p, _grid(shape))

    # the "effective" column, the visible book, is the informed curve
    columns = {"x": book.grid, "informed": book.informed, "noise": book.noise,
               "effective": book.informed}
    if variant == "tick":
        columns["per_level"] = book.per_level
    columns.update((f"source_{k}", src) for k, src in enumerate(book.source_books or ()))
    table = {name: [float(v) for v in col] for name, col in columns.items()}
    tick, offset_d = (p.tick, p.offset_d) if p else (0.0, 0.0)
    return {"shape.csv": table, "shape.json": {**table, "tick": tick, "offset_d": offset_d}}


def cmd_spread(root: _Section, seed, stage) -> dict:
    params = _params(root)
    if params.theta > 0.0 and params.tick > 0.0:
        raise ConfigError("set either theta > 0 or tick > 0, not both")
    sol = spread(params)
    # the toxic half-spread is reported only for a toxic model
    doc = {**dataclasses.asdict(sol), "phi_theta": sol.phi_theta if params.theta > 0.0 else None,
           "theta_bar": theta_bar(params)}
    return {"spread.json": doc}


def cmd_simulate(root: _Section, seed, stage) -> dict:
    params = _params(root)
    sim = root.section("simulate", "", ("n_events", "seed", "n_levels", "record_log",
                                         "volume_scale"))
    sim_seed = sim.number("seed", None, int)
    if seed is None and sim_seed is None:
        raise sim.fail("a seed is required (config or --seed)")
    sc = sim.build(
        SimConfig,
        params=params,
        n_events=sim.number("n_events", cast=int),
        seed=sim_seed if seed is None else seed,
        **sim.present(("n_levels", "volume_scale"), int),
    )
    record_log = sim.get("record_log", False)
    if not isinstance(record_log, bool):
        raise sim.fail(f"record_log must be true or false, got {record_log!r}")
    # the log is written as the event loop runs, before pnl and summary exist
    result = run_sim(sc, log=stage("mbo.csv") if record_log else None)

    names = ("maker_type", "level", "n_fills", "mean_gain", "std_err")
    pnl = {name: [getattr(p, field.name) for p in result.pnl]
           for name, field in zip(names, dataclasses.fields(LevelPnl))}
    outputs = {"pnl.csv": pnl, "summary.json": result.summary}
    if record_log:
        outputs["mbo.csv"] = None
    return outputs


def cmd_signature(root: _Section, seed, stage) -> dict:
    sig = root.section("signature", "", ("input", "tick", "reference", "horizons_s", "clusters"))
    input_path = sig.path("input")
    tick = sig.number("tick", None) or None                 # absent, null or 0: no tick
    reference = sig.get("reference", "micro")
    if reference not in REFERENCES:
        raise sig.fail(f"unknown reference {reference!r}; expected one of {REFERENCES}")
    horizons_ns = []
    for i, h in enumerate(sig.numbers("horizons_s")):
        if not math.isfinite(h):
            raise sig.fail(f"horizons_s must be finite, got {h}")
        # checked before round: no float near these bounds has a fraction
        if not -2**63 <= h * 1e9 < 2**63:
            raise sig.fail(f"horizons_s[{i}] must fit in int64 ns, got {h}")
        horizons_ns.append(round(h * 1e9))
    clusters = sig.sections("clusters", "signature cluster", ("metric", "thresholds", "side"))
    specs = [c.build(ClusterSpec, metric=c.get("metric"), thresholds=c.numbers("thresholds"),
                     side=c.get("side")) for c in clusters]

    # every config value is checked before the log is read and any CSV written
    events = parse_mbo(input_path, tick=tick)
    if not np.any(events.action == EXECUTE):
        raise sig.fail(f"log {input_path} contains no executions")
    replay = reconstruct(events)
    del events                             # each stage keeps only what the next one reads
    quotes = QuoteSeries.from_replay(replay)
    aggressive, passive = build_trade_records(replay)
    del replay

    outputs = {}
    for i, (cluster, spec) in enumerate(zip(clusters, specs)):
        records = aggressive if spec.side == "aggressive" else passive
        eps = 1 if spec.side == "aggressive" else -1
        labels = classify(records, spec)
        if np.all(labels == UNDEFINED_CLUSTER):
            raise cluster.fail(f"no {spec.side} trade has a defined {spec.metric}")
        try:
            curve = signature_curves(records, labels, horizons_ns, eps, reference, quotes)
        except ValueError as exc:
            raise cluster.fail(str(exc)) from None
        # one row per cluster and horizon, the horizons of each cluster together
        ids = list(curve.values)
        outputs[f"signature_{i}_{spec.metric}.csv"] = {
            "horizon": [k / 1e9 for k in horizons_ns] * len(ids),
            "cluster_id": [cid for cid in ids for _ in horizons_ns],
            "st_value": [value for values in curve.values.values() for value in values],
            "n_trades": [curve.counts[cid] for cid in ids for _ in horizons_ns],
        }
    return outputs


def cmd_sweep(root: _Section, seed, stage) -> dict:
    sweep = root.section("sweep", "", ("r_values", "f_values", "theta_values", "probe_x", "jump",
                                       "volume", "rho", "tick", "offset_d"))
    r_values = sweep.numbers("r_values")
    f_values = sweep.numbers("f_values")
    theta_values = sweep.numbers("theta_values", [ModelParams.theta])
    probe_x = sweep.numbers("probe_x", [], allow_empty=True)
    first = {}
    for i, x in enumerate(probe_x):
        if (j := first.setdefault(x, i)) != i:      # one column per distance
            raise sweep.fail(f"probe_x[{i}] repeats probe_x[{j}] = {_fmt(x)}")
    r, f, theta = (a.ravel() for a in np.meshgrid(r_values, f_values, theta_values,
                                                  indexing="ij"))
    grid = sweep.build(ParamGrid, r=r, f=f, theta=theta, jump=sweep.law("jump"),
                       volume=sweep.law("volume"), **sweep.present(("rho", "tick", "offset_d")))
    log.info("sweep over %d cells", r.size)

    # a cell with theta > 0 reports the toxic spread, else the tick
    # quantities when there is a tick; the zero-spread regime reports phi = 0
    sol = solve_spreads(grid)
    solved = ~sol.zero
    toxic = solved & (theta > 0.0)
    ticked = solved & ~toxic
    informed, _noise = book_curves(grid, probe_x)
    table = {"r": r.tolist(), "f": f.tolist(), "theta": theta.tolist(), "phi": sol.phi.tolist()}
    # blank where a cell has no such value; k_d and spread_tick are None without a tick
    for name, keep in (("mu", solved), ("phi_theta", toxic), ("k_d", ticked),
                       ("spread_tick", ticked)):
        values = getattr(sol, name)
        table[name] = [None] * r.size if values is None else np.where(keep, values, None).tolist()
    table.update((f"L_at_{_fmt(x)}", column) for x, column in zip(probe_x, informed.T.tolist()))
    return {"sweep.csv": table}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "shape": cmd_shape,
    "spread": cmd_spread,
    "simulate": cmd_simulate,
    "signature": cmd_signature,
    "sweep": cmd_sweep,
}


def _sections(command: str, root: _Section) -> tuple[str, ...]:
    """Top-level sections ``command`` reads; a shape reads ``multi`` for
    the multi variant and ``params`` for the others."""
    if command == "shape":
        shape_cfg = root.cfg.get("shape")
        multi = isinstance(shape_cfg, dict) and shape_cfg.get("variant") == "multi"
        return ("shape", "multi" if multi else "params")
    return {"spread": ("params",), "simulate": ("params", "simulate"),
            "signature": ("signature",), "sweep": ("sweep",)}[command]


def _setup_logging() -> None:
    level = os.environ.get("LOB_LOG_LEVEL", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"LOB_LOG_LEVEL must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lobeq",
        description="Equilibrium order-book shapes, spreads, simulation and signatures",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        _setup_logging()
        with open(args.config) as fh:
            cfg = json.load(fh)
        root = _Section(cfg, "config: ")
        root.only(("seed", "out", *_sections(args.command, root)))
        config_seed = root.number("seed", None, int)
        for where, value in (("config: ", config_seed), ("", args.seed)):
            if value is not None and value < 0:
                raise ConfigError(f"{where}seed must be a nonnegative integer, got {value}")
        config_out = root.path("out", None)
        out_dir = args.out or config_out
        if not out_dir:
            raise ConfigError("an output directory is required (--out or config 'out')")
        out = Path(out_dir)
        seed = args.seed if args.seed is not None else config_seed

        with _Staging(out) as stage:
            outputs = COMMANDS[args.command](root, seed, stage.path)
            for name, content in outputs.items():
                if content is not None:
                    _write(stage.path(name), content)
            resolved = dict(cfg)
            if seed is not None:
                resolved["seed"] = seed
            manifest = {"command": args.command, "package_version": __version__, "seed": seed,
                        "config": resolved, "outputs": list(outputs)}
            _write(stage.path("manifest.json"), manifest, sort_keys=True)
            stale = _stale_outputs(out / "manifest.json", outputs)
            stage.commit([*outputs, "manifest.json"])
        # an earlier run's outputs that this one did not replace would sit
        # beside a manifest that does not list them
        for name in stale:
            if (out / name).is_file():
                (out / name).unlink()
        log.info("wrote %s", ", ".join([*outputs, "manifest.json"]))
        return 0
    # ConfigError, the MBO errors and json.JSONDecodeError are ValueErrors; an
    # array too large to allocate is a MemoryError, and a config nested deeper
    # than json or repr can recurse is a RecursionError
    except (ValueError, OSError, MemoryError, RecursionError, ZeroSpreadRegime,
            SolverError) as exc:
        print(f"lobeq {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
