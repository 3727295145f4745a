"""Workload definitions: one ``lobeq`` CLI job per workload, made from a seed.

Every config and input is generated from the benchmark seed, so the same
seed gives byte-identical inputs.  The program only receives the generated
config files; it never sees the seed except where the config carries it as
the simulation seed.

Why each workload exists (the layer it stresses and what it bypasses):

* ``mc_fast``: ``lobeq simulate`` on the fast path with the reference model
  of acceptance test 3.  ``simulator.draw_events`` and
  ``kernels.accumulate_pnl`` do the work; no MBO, signature or solver code.
* ``mbo_log``: ``lobeq simulate`` with ``record_log`` at the parameters of
  acceptance test 7.  The write side of the MBO layer: the logged
  bookkeeping loop, repeated ``book_curves`` calls and ``mbo.write_csv``.
  The fill kernel does not run.
* ``signature``: ``lobeq signature`` over a log made by the ``mbo_log``
  config at the same seed (made before timing starts).  The read side of
  the MBO layer: ``mbo.parse``, ``mbo.reconstruct``, trade records and
  signature curves for all five cluster metrics.  No simulation runs.
* ``sweep``: ``lobeq sweep`` over a 20 r x 50 f x 2 theta grid with the
  README's Pareto(3, 0.005) law.  Spread solves, bisection and law
  evaluations on both the plain (theta = 0) and the toxic branch.  Nothing
  from ``simulator``, ``mbo`` or ``signature`` runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("mc_fast", "mbo_log", "signature", "sweep")

# References in perfbench/reference/ were recorded at this seed.
REFERENCE_SEED = 1

TICK = 0.01

# acceptance test 3: the reference model
MC_PARAMS = {
    "r": 0.9, "f": 0.9,
    "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005},
    "volume": {"type": "normal", "sigma": 10.0},
    "tick": TICK, "offset_d": 0.0,
}

# acceptance test 7: the labeled-log model
MBO_PARAMS = {
    "r": 0.15, "f": 0.9,
    "jump": {"type": "pareto", "shape": 2.5, "scale": 0.01},
    "volume": {"type": "normal", "sigma": 10.0},
    "tick": TICK, "offset_d": 0.0,
    "lambda_i": 0.15, "lambda_u": 0.85,
}

# all five lifecycle metrics, one spec each
CLUSTERS = [
    {"metric": "trade_to_add", "thresholds": [1e4, 1e7, 1e9], "side": "passive"},
    {"metric": "add_to_add", "thresholds": [1e4, 1e7, 1e9], "side": "passive"},
    {"metric": "update_count", "thresholds": [1, 2], "side": "passive"},
    {"metric": "trade_to_trade", "thresholds": [1e7, 1e9], "side": "aggressive"},
    {"metric": "volume_ratio", "thresholds": [0.25, 0.5, 0.75], "side": "aggressive"},
]
HORIZONS_S = [0.0, 1.0, 10.0]
THETA_VALUES = [0.0, 0.0005]

# full size: each CLI process takes one to four seconds on 2 CPUs, so a run
# of the length BENCHMARK.json sets collects several processes to take the
# median of; tiny: the self-test size
SIZES = {
    "full": {"mc_events": 1_000_000, "mbo_events": 5_000, "n_r": 20, "n_f": 50},
    "tiny": {"mc_events": 20_000, "mbo_events": 300, "n_r": 3, "n_f": 4},
}


@dataclass(frozen=True)
class Job:
    """One CLI command to time: ``lobeq <command> --config <config>``."""

    workload: str
    command: str
    config: dict
    units: int | None     # work units per process; None: counted from the input
    unit_name: str


def sim_seed(seed: int) -> int:
    """The simulation seed for a benchmark seed (numpy needs it nonnegative)."""
    return seed % 2**32


def mbo_log_config(seed: int, size: str = "full") -> dict:
    return {
        "params": dict(MBO_PARAMS),
        "simulate": {"n_events": SIZES[size]["mbo_events"], "seed": sim_seed(seed),
                     "n_levels": 8, "record_log": True, "volume_scale": 1000},
    }


def _jittered_grid(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """``n`` increasing points, one drawn from each of ``n`` equal parts of
    (lo, hi), away from the part's edges.  Every seed gets a different grid
    over the same mix of plain and hard cells, so the cost of a sweep
    varies little between seeds."""
    width = (hi - lo) / n
    return [round(lo + (k + rng.uniform(0.25, 0.75)) * width, 6) for k in range(n)]


def make_job(workload: str, seed: int, size: str = "full",
             log_path: str | None = None) -> Job:
    """The job of ``workload`` at ``seed``; ``signature`` reads ``log_path``."""
    sz = SIZES[size]
    if workload == "mc_fast":
        cfg = {"params": dict(MC_PARAMS),
               "simulate": {"n_events": sz["mc_events"], "seed": sim_seed(seed),
                            "n_levels": 8}}
        return Job(workload, "simulate", cfg, sz["mc_events"], "events")
    if workload == "mbo_log":
        cfg = mbo_log_config(seed, size)
        return Job(workload, "simulate", cfg, sz["mbo_events"], "events")
    if workload == "signature":
        if log_path is None:
            raise ValueError("the signature workload needs the path of its MBO log")
        cfg = {"signature": {"input": log_path, "tick": TICK, "reference": "micro",
                             "horizons_s": list(HORIZONS_S), "clusters": CLUSTERS}}
        return Job(workload, "signature", cfg, None, "rows")
    if workload == "sweep":
        rng = random.Random(seed)
        cfg = {"sweep": {
            "r_values": _jittered_grid(rng, sz["n_r"], 0.05, 0.95),
            "f_values": _jittered_grid(rng, sz["n_f"], 0.0, 1.0),
            "theta_values": list(THETA_VALUES),
            "probe_x": _jittered_grid(rng, 3, 0.005, 0.1),
            "jump": dict(MC_PARAMS["jump"]),
            "volume": dict(MC_PARAMS["volume"]),
            "tick": 0.0,
        }}
        cells = sz["n_r"] * sz["n_f"] * len(THETA_VALUES)
        return Job(workload, "sweep", cfg, cells, "cells")
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
