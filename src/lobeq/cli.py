"""Command-line surface: reproducible runs driven by JSON configs.

Commands::

    lobeq shape     --config cfg.json --out DIR
    lobeq spread    --config cfg.json --out DIR
    lobeq simulate  --config cfg.json --out DIR [--seed N]
    lobeq signature --config cfg.json --out DIR
    lobeq sweep     --config cfg.json --out DIR

Flags only select the command, config path, output directory and an
optional seed override; everything else lives in the config document so a
run can be reproduced from its manifest alone.  Every command writes
``manifest.json`` echoing the fully resolved config.  Numeric CSV output
is rendered with 17 significant digits so values round-trip exactly.

``LOB_LOG_LEVEL`` in {error, info, debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .equilibrium import (
    JumpSource,
    ModelParams,
    MultiSourceParams,
    ParamGrid,
    SolverError,
    UnfillableLevelError,
    ZeroSpreadRegime,
    book_curves,
    shape_continuous,
    shape_multi,
    shape_tick,
    solve_spreads,
    spread_continuous,
    spread_tick,
    spread_toxic,
    theta_bar,
)
from .laws import config_number as _number, jump_law_from_config, volume_law_from_config
from .mbo import EXECUTE, parse as parse_mbo, reconstruct, write_csv
from .signature import (
    REFERENCES,
    ClusterSpec,
    QuoteSeries,
    build_trade_records,
    classify,
    signature_curves,
)
from .simulator import SimConfig, export_mbo, run as run_sim

log = logging.getLogger("lobeq")

RESIDUAL_GATE = 1e-9


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _require(cfg: dict, key: str, context: str) -> object:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context}: expected a JSON object, got {cfg!r}")
    if key not in cfg:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return cfg[key]


def _numbers(values, what: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list of numbers, got {values!r}")
    return [_number(v, f"{what}[{i}]") for i, v in enumerate(values)]


def params_from_config(cfg: dict) -> ModelParams:
    known = {"r", "f", "jump", "volume", "lambda_i", "lambda_u",
             "theta", "rho", "tick", "offset_d"}
    extra = set(cfg) - known
    if extra:
        raise ConfigError(f"params: unknown keys {sorted(extra)}")
    try:
        # r or both intensities may be absent or null: ModelParams derives one from the other
        rates = {key: _number(cfg[key], key)
                 for key in ("r", "lambda_i", "lambda_u") if cfg.get(key) is not None}
        return ModelParams(
            **rates,
            f=_number(_require(cfg, "f", "params"), "f"),
            jump=jump_law_from_config(_require(cfg, "jump", "params")),
            volume=volume_law_from_config(_require(cfg, "volume", "params")),
            theta=_number(cfg.get("theta", 0.0), "theta"),
            rho=_number(cfg.get("rho", 0.0), "rho"),
            tick=_number(cfg.get("tick", 0.0), "tick"),
            offset_d=_number(cfg.get("offset_d", 0.0), "offset_d"),
        )
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def multi_from_config(cfg: dict) -> MultiSourceParams:
    sources = _require(cfg, "sources", "multi")
    if not isinstance(sources, list):
        raise ConfigError(f"multi: sources must be a list, got {sources!r}")
    specs = []
    for k, s in enumerate(sources):
        context = f"multi: source {k}"
        r, f, jump = (_require(s, key, context) for key in ("r", "f", "jump"))
        try:
            specs.append(JumpSource(r=_number(r, "r"), f=_number(f, "f"),
                                    jump=jump_law_from_config(jump)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{context}: {exc}") from None
    try:
        return MultiSourceParams(sources=specs,
                                 volume=volume_law_from_config(_require(cfg, "volume", "multi")))
    except ValueError as exc:
        raise ConfigError(f"multi: {exc}") from None


def _grid_from_config(cfg: dict, context: str) -> np.ndarray:
    if "x_grid" in cfg:
        grid = np.asarray(_numbers(cfg["x_grid"], f"{context}: x_grid"), dtype=float)
    else:
        lo = _number(_require(cfg, "x_min", context), f"{context}: x_min")
        hi = _number(_require(cfg, "x_max", context), f"{context}: x_max")
        n = _number(_require(cfg, "n_points", context), f"{context}: n_points", int)
        if not (0.0 < lo < hi and n >= 2):
            raise ConfigError(f"{context}: need 0 < x_min < x_max and n_points >= 2")
        grid = np.linspace(lo, hi, n)
    if np.any(grid <= 0.0):
        raise ConfigError(f"{context}: grid distances must be positive")
    return grid


def _write_manifest(out: Path, command: str, cfg: dict, seed, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "seed": seed,
        "config": cfg,
        "outputs": outputs,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv_rows(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_shape(cfg: dict, out: Path, seed) -> list[str]:
    shape_cfg = _require(cfg, "shape", "config")
    variant = _require(shape_cfg, "variant", "shape")

    if variant == "multi":
        mp = multi_from_config(_require(cfg, "multi", "config"))
        grid = _grid_from_config(shape_cfg, "shape")
        book = shape_multi(mp, grid)
    else:
        params = params_from_config(_require(cfg, "params", "config"))
        if variant == "tick":
            book = shape_tick(params, _number(_require(shape_cfg, "n_levels", "shape"),
                                              "shape: n_levels", int))
        elif variant in ("continuous", "toxic"):
            book = shape_continuous(params, _grid_from_config(shape_cfg, "shape"))
        else:
            raise ConfigError(f"shape: unknown variant {variant!r}")

    columns = {"x": book.grid, "informed": book.informed, "noise": book.noise,
               "effective": book.effective}
    if book.per_level is not None:
        columns["per_level"] = book.per_level
    columns.update((f"source_{k}", src) for k, src in enumerate(book.source_books or ()))
    doc = {name: [float(v) for v in col] for name, col in columns.items()}
    _write_csv_rows(out / "shape.csv", list(doc), zip(*doc.values()))
    doc["tick"] = book.tick
    doc["offset_d"] = book.offset_d
    with open(out / "shape.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return ["shape.csv", "shape.json"]


def _solve_spread(params: ModelParams):
    if params.theta > 0.0 and params.tick > 0.0:
        raise ConfigError("spread: set either theta > 0 or tick > 0, not both")
    if params.theta > 0.0:
        return spread_toxic(params)
    if params.tick > 0.0:
        return spread_tick(params)
    return spread_continuous(params)


def cmd_spread(cfg: dict, out: Path, seed) -> list[str]:
    params = params_from_config(_require(cfg, "params", "config"))
    sol = _solve_spread(params)
    if not sol.residual <= RESIDUAL_GATE:
        raise SolverError(f"spread residual {sol.residual} exceeds {RESIDUAL_GATE}")
    doc = {**asdict(sol), "theta_bar": theta_bar(params)}
    with open(out / "spread.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return ["spread.json"]


def cmd_simulate(cfg: dict, out: Path, seed) -> list[str]:
    params = params_from_config(_require(cfg, "params", "config"))
    sim_cfg = _require(cfg, "simulate", "config")
    known = {"n_events", "seed", "n_levels", "record_log", "volume_scale", "p0"}
    extra = set(sim_cfg) - known
    if extra:
        raise ConfigError(f"simulate: unknown keys {sorted(extra)}")
    use_seed = seed if seed is not None else sim_cfg.get("seed")
    if use_seed is None:
        raise ConfigError("simulate: a seed is required (config or --seed)")
    try:
        sc = SimConfig(
            params=params,
            n_events=_number(_require(sim_cfg, "n_events", "simulate"), "n_events", int),
            seed=_number(use_seed, "seed", int),
            record_log=sim_cfg.get("record_log", False),
            n_levels=_number(sim_cfg.get("n_levels", 10), "n_levels", int),
            volume_scale=_number(sim_cfg.get("volume_scale", 1_000_000), "volume_scale", int),
            p0=_number(sim_cfg.get("p0", 100.0), "p0"),
        )
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from None
    result = run_sim(sc)

    rows = ([p.maker, p.level, p.n_fills, p.mean_gain, p.std_err] for p in result.pnl)
    _write_csv_rows(out / "pnl.csv", ["maker_type", "level", "n_fills", "mean_gain", "std_err"], rows)
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, indent=2)
        fh.write("\n")
    outputs = ["pnl.csv", "summary.json"]
    if sc.record_log:
        write_csv(export_mbo(result), out / "mbo.csv")
        outputs.append("mbo.csv")
    return outputs


def cmd_signature(cfg: dict, out: Path, seed) -> list[str]:
    sig_cfg = _require(cfg, "signature", "config")
    input_path = _require(sig_cfg, "input", "signature")
    tick = sig_cfg.get("tick")
    if tick is not None:                                    # absent, null or 0: no tick
        tick = _number(tick, "signature: tick") or None
    if tick is not None and not 0.0 < tick < math.inf:
        raise ConfigError(f"signature: tick must be positive and finite, got {tick}")
    reference = sig_cfg.get("reference", "micro")
    if reference not in REFERENCES:
        raise ConfigError(f"signature: unknown reference {reference!r}; "
                          f"expected one of {REFERENCES}")
    horizons_s = _numbers(_require(sig_cfg, "horizons_s", "signature"), "signature: horizons_s")
    for h in horizons_s:
        if not math.isfinite(h):
            raise ConfigError(f"signature: horizons_s must be finite, got {h}")
    horizons_ns = [int(round(h * 1e9)) for h in horizons_s]
    clusters = _require(sig_cfg, "clusters", "signature")
    if not isinstance(clusters, list):
        raise ConfigError(f"signature: clusters must be a list, got {clusters!r}")
    specs = []
    for i, spec_cfg in enumerate(clusters):
        try:
            specs.append(ClusterSpec(
                metric=_require(spec_cfg, "metric", "cluster"),
                thresholds=_numbers(_require(spec_cfg, "thresholds", "cluster"), "thresholds"),
                side=_require(spec_cfg, "side", "cluster"),
            ))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"signature cluster {i}: {exc}") from None

    # every config value is checked before the log is read and any CSV written
    events = parse_mbo(input_path, tick=tick)
    if not np.any(events.action == EXECUTE):
        raise ConfigError(f"signature: log {input_path} contains no executions")
    replay = reconstruct(events)
    quotes = QuoteSeries.from_replay(replay)
    aggressive, passive = build_trade_records(replay, quotes)

    outputs = []
    for i, spec in enumerate(specs):
        records = aggressive if spec.side == "aggressive" else passive
        eps = 1 if spec.side == "aggressive" else -1
        labels = classify(records, spec)
        curve = signature_curves(records, labels, horizons_ns, eps, reference, quotes)
        rows = [[k / 1e9, cid, value, curve.counts[cid]] for cid in curve.cluster_ids
                for k, value in zip(curve.horizons_ns, curve.values[cid])]
        name = f"signature_{i}_{spec.metric}.csv"
        _write_csv_rows(out / name, ["horizon", "cluster_id", "st_value", "n_trades"], rows)
        outputs.append(name)
    return outputs


def _blank_unless(values: np.ndarray | None, keep: np.ndarray) -> list:
    """``values`` as a list with None (a blank CSV cell) where ``keep`` is
    False; all blanks when there are no values."""
    if values is None:
        return [None] * keep.size
    return [v if k else None for v, k in zip(values.tolist(), keep.tolist())]


def cmd_sweep(cfg: dict, out: Path, seed) -> list[str]:
    sweep_cfg = _require(cfg, "sweep", "config")
    r_values = _numbers(_require(sweep_cfg, "r_values", "sweep"), "sweep: r_values")
    f_values = _numbers(_require(sweep_cfg, "f_values", "sweep"), "sweep: f_values")
    theta_values = _numbers(sweep_cfg.get("theta_values", [0.0]), "sweep: theta_values")
    probe_x = _numbers(sweep_cfg.get("probe_x", []), "sweep: probe_x")
    r, f, theta = (a.ravel() for a in np.meshgrid(r_values, f_values, theta_values,
                                                  indexing="ij"))
    try:
        grid = ParamGrid(
            r=r, f=f, theta=theta,
            jump=jump_law_from_config(_require(sweep_cfg, "jump", "sweep")),
            volume=volume_law_from_config(_require(sweep_cfg, "volume", "sweep")),
            rho=_number(sweep_cfg.get("rho", 0.0), "rho"),
            tick=_number(sweep_cfg.get("tick", 0.0), "tick"),
            offset_d=_number(sweep_cfg.get("offset_d", 0.0), "offset_d"),
        )
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from None
    log.info("sweep over %d cells", r.size)

    # a cell with theta > 0 reports the toxic spread, else the tick
    # quantities when there is a tick; the zero-spread regime reports phi = 0
    sol = solve_spreads(grid)
    solved = ~sol.zero
    bad = np.flatnonzero(solved & ~(sol.residual <= RESIDUAL_GATE))
    if bad.size:
        i = bad[0]
        raise SolverError(f"spread residual {sol.residual[i]} exceeds {RESIDUAL_GATE} "
                          f"at {grid.cell(i)}")
    toxic = solved & (theta > 0.0)
    ticked = solved & ~toxic
    informed, _noise = book_curves(grid, probe_x)
    columns = [
        r.tolist(), f.tolist(), theta.tolist(), sol.phi.tolist(),
        _blank_unless(sol.mu, solved),
        _blank_unless(sol.phi_theta, toxic),
        _blank_unless(sol.k_d, ticked),
        _blank_unless(sol.spread_tick, ticked),
        *informed.T.tolist(),
    ]
    header = ["r", "f", "theta", "phi", "mu", "phi_theta", "k_d", "spread_tick"]
    header += [f"L_at_{_fmt(x)}" for x in probe_x]
    _write_csv_rows(out / "sweep.csv", header, zip(*columns))
    return ["sweep.csv"]


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
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        out_dir = args.out or cfg.get("out")
        if not out_dir:
            raise ConfigError("an output directory is required (--out or config 'out')")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.get("seed")

        resolved = dict(cfg)
        if seed is not None:
            resolved["seed"] = seed
        outputs = COMMANDS[args.command](resolved, out, seed)
        _write_manifest(out, args.command, resolved, seed, outputs)
        log.info("wrote %s", ", ".join(outputs + ["manifest.json"]))
        return 0
    # ConfigError, the MBO errors and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError, ZeroSpreadRegime, SolverError, UnfillableLevelError) as exc:
        print(f"lobeq {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
