"""CLI end-to-end: configs in, reproducible files out, honest exit codes."""

import csv
import dataclasses
import importlib
import itertools
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import lobeq
from lobeq import cli, simulator
from lobeq.cli import _Section, main
from lobeq.equilibrium import (
    ModelParams,
    ParamGrid,
    SolverError,
    ZeroSpreadRegime,
    book_curves,
    solve_spreads,
    spread,
)
from lobeq.laws import Exponential, LaplaceVolume, NormalVolume, Pareto, PointMass
from lobeq.signature import METRICS

REF_PARAMS = {
    "r": 0.9,
    "f": 0.9,
    "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005},
    "volume": {"type": "normal", "sigma": 10.0},
    "tick": 0.01,
    "offset_d": 0.0,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, command, doc, *extra):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestShape:
    def test_tick_book_first_level(self, tmp_path):
        code, out = run_cli(tmp_path, "shape", {
            "params": REF_PARAMS,
            "shape": {"variant": "tick", "n_levels": 8},
        })
        assert code == 0
        rows = read_csv(out / "shape.csv")
        first_nonzero = next(i for i, row in enumerate(rows)
                             if float(row["informed"]) > 0.0)
        assert first_nonzero + 1 == 3     # first occupied level
        assert (out / "manifest.json").exists()

    def test_f1_columns_identical(self, tmp_path):
        params = dict(REF_PARAMS, f=1.0, tick=0.0)
        code, out = run_cli(tmp_path, "shape", {
            "params": params,
            "shape": {"variant": "continuous", "x_min": 0.005, "x_max": 0.1,
                      "n_points": 20},
        })
        assert code == 0
        for row in read_csv(out / "shape.csv"):
            assert row["informed"] == row["noise"]

    def test_f0_unbounded_sentinel(self, tmp_path):
        params = dict(REF_PARAMS, f=0.0, tick=0.0)
        code, out = run_cli(tmp_path, "shape", {
            "params": params,
            "shape": {"variant": "continuous", "x_min": 0.01, "x_max": 0.05,
                      "n_points": 5},
        })
        assert code == 0
        for row in read_csv(out / "shape.csv"):
            assert math.isinf(float(row["informed"]))

    def test_toxic_variant(self, tmp_path):
        params = dict(REF_PARAMS, tick=0.0, theta=0.005, rho=0.5)
        code, out = run_cli(tmp_path, "shape", {
            "params": params,
            "shape": {"variant": "toxic", "x_min": 0.005, "x_max": 0.1,
                      "n_points": 20},
        })
        assert code == 0
        rows = read_csv(out / "shape.csv")
        depths = [float(r["informed"]) for r in rows]
        assert depths[0] == 0.0                  # below the drift-adjusted spread
        assert depths[-1] > 0.0
        assert all(b >= a for a, b in zip(depths, depths[1:]))

    def test_multi_variant(self, tmp_path):
        code, out = run_cli(tmp_path, "shape", {
            "multi": {
                "sources": [
                    {"r": 0.2, "f": 0.0, "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005}},
                    {"r": 0.2, "f": 0.0, "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005}},
                ],
                "volume": {"type": "normal", "sigma": 10.0},
            },
            "shape": {"variant": "multi", "x_min": 0.01, "x_max": 0.1, "n_points": 10},
        })
        assert code == 0
        rows = read_csv(out / "shape.csv")
        assert "source_0" in rows[0] and "source_1" in rows[0]
        assert all(math.isfinite(float(r["informed"])) for r in rows)

    def test_continuous_variant_takes_toxicity(self, tmp_path):
        params = dict(REF_PARAMS, tick=0.0, theta=0.005, rho=0.5)
        outputs = []
        for variant in ("continuous", "toxic"):
            (tmp_path / variant).mkdir()
            code, out = run_cli(tmp_path / variant, "shape", {
                "params": params,
                "shape": {"variant": variant, "x_grid": [0.001, 0.02, 0.05]},
            })
            assert code == 0
            outputs.append((out / "shape.csv").read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("source,message", [
        (7, "multi: source 1: expected a JSON object, got 7"),
        ({"r": -0.1, "f": 0.5, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1: source fraction r = -0.1 must lie in [0, 1)"),
        ({"r": 0.1, "f": 0.4, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1 has f = 0.4 but source 0 has f = 0.5"),
        ({"r": 0.1, "f": 0.5, "jump": {"type": "exponential"}},
         "multi: source 1: jump law 'exponential': missing required key 'rate'"),
        ({"r": None, "f": 0.5, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1: r must be a number, got None"),
        ({"r": "0.3", "f": 0.5, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1: r must be a number, got '0.3'"),
        ({"r": 0.1, "f": True, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1: f must be a number, got True"),
        ({"r": 0.1, "f": 0.5, "jump": {"type": "pareto", "shape": "3.0", "scale": 0.005}},
         "multi: source 1: jump law 'pareto': shape must be a number, got '3.0'"),
        ({"r": 0.1, "f": 0.5, "jump": {"type": "pareto", "shape": 3.0, "scale": True}},
         "multi: source 1: jump law 'pareto': scale must be a number, got True"),
    ])
    def test_bad_multi_source_names_its_index(self, tmp_path, capsys, source, message):
        first = {"r": 0.2, "f": 0.5, "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005}}
        code, out = run_cli(tmp_path, "shape", {
            "multi": {"sources": [first, source], "volume": {"type": "normal", "sigma": 10.0}},
            "shape": {"variant": "multi", "x_grid": [0.01, 0.05]},
        })
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "shape.csv").exists()

    def test_nan_grid_distance_names_its_index(self, tmp_path, capsys):
        code, _out = run_cli(tmp_path, "shape", {
            "params": dict(REF_PARAMS, tick=0.0),
            "shape": {"variant": "continuous", "x_grid": [0.01, 0.02, math.nan]},
        })
        assert code == 2
        assert "distance nan at index 2" in capsys.readouterr().err

    @pytest.mark.parametrize("shape, message", [
        ({"variant": "continuous", "x_grid": [0.01, None]},
         "shape: x_grid[1] must be a number, got None"),
        ({"variant": "continuous", "x_grid": 5}, "shape: x_grid must be a list of numbers, got 5"),
        ({"variant": "continuous", "x_min": 0.01, "x_max": None, "n_points": 5},
         "shape: x_max must be a number, got None"),
        ({"variant": "tick", "n_levels": None}, "shape: n_levels must be an integer, got None"),
    ])
    def test_non_numeric_shape_setting_names_its_key(self, tmp_path, capsys, shape, message):
        code, out = run_cli(tmp_path, "shape", {"params": REF_PARAMS, "shape": shape})
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "shape.csv").exists()

    @pytest.mark.parametrize("shape, message", [
        ({"variant": "tick", "n_levels": 3.9}, "shape: n_levels must be an integer, got 3.9"),
        ({"variant": "continuous", "x_min": 0.01, "x_max": 0.05, "n_points": 5.5},
         "shape: n_points must be an integer, got 5.5"),
    ])
    def test_fractional_integer_setting_rejected(self, tmp_path, capsys, shape, message):
        code, out = run_cli(tmp_path, "shape", {"params": REF_PARAMS, "shape": shape})
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "shape.csv").exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "shape", {
            "params": REF_PARAMS, "shape": {"variant": "continuous", "x_grid": []}})
        assert code == 2
        assert capsys.readouterr().err == "lobeq shape: x_grid must not be empty\n"
        assert not (out / "shape.csv").exists()

    @pytest.mark.parametrize("tick, n_levels, message", [
        (0.01, 0, "n_levels must be at least 1"),
        (0.0, 4, "shape_tick requires a positive tick"),
    ])
    def test_tick_book_needs_a_tick_and_a_level(self, tmp_path, capsys, tick, n_levels, message):
        code, out = run_cli(tmp_path, "shape", {"params": dict(REF_PARAMS, tick=tick),
                                                "shape": {"variant": "tick",
                                                          "n_levels": n_levels}})
        assert code == 2
        assert capsys.readouterr().err == f"lobeq shape: {message}\n"
        assert not out.exists()

    def test_integral_float_accepted_for_an_integer(self, tmp_path):
        code, out = run_cli(tmp_path, "shape", {
            "params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 4.0}})
        assert code == 0
        assert len(read_csv(out / "shape.csv")) == 4

    @pytest.mark.parametrize("doc, extra, tick, offset_d", [
        ({"params": dict(REF_PARAMS, offset_d=0.004), "shape": {"variant": "tick", "n_levels": 6}},
         ["per_level"], 0.01, 0.004),
        ({"params": dict(REF_PARAMS, f=0.0), "shape": {"variant": "tick", "n_levels": 4}},
         ["per_level"], 0.01, 0.0),
        ({"params": dict(REF_PARAMS, tick=0.0),
          "shape": {"variant": "continuous", "x_grid": [0.001, 0.02, 0.05]}}, [], 0.0, 0.0),
        ({"params": dict(REF_PARAMS, tick=0.0, theta=0.005, rho=0.5),
          "shape": {"variant": "toxic", "x_grid": [0.001, 0.02, 0.05]}}, [], 0.0, 0.0),
        ({"multi": {"sources": [{"r": 0.2, "f": 0.5, "jump": REF_PARAMS["jump"]},
                                {"r": 0.1, "f": 0.5, "jump": {"type": "exponential",
                                                              "rate": 80.0}}],
                    "volume": REF_PARAMS["volume"]},
          "shape": {"variant": "multi", "x_grid": [0.001, 0.02, 0.05]}},
         ["source_0", "source_1"], 0.0, 0.0),
    ], ids=["tick-offset", "tick-f0", "continuous", "toxic", "multi"])
    def test_columns_and_parameters_of_each_variant(self, tmp_path, doc, extra, tick, offset_d):
        code, out = run_cli(tmp_path, "shape", doc)
        assert code == 0
        columns = ["x", "informed", "noise", "effective", *extra]
        with open(out / "shape.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == columns
        body = dict(zip(columns, zip(*rows[1:])))
        assert body["effective"] == body["informed"]
        saved = json.loads((out / "shape.json").read_text())
        assert list(saved) == [*columns, "tick", "offset_d"]
        assert (saved["tick"], saved["offset_d"]) == (tick, offset_d)
        for name in columns:
            assert np.array_equal(saved[name], np.array(body[name], dtype=float), equal_nan=True)
        if "per_level" in extra:
            with np.errstate(invalid="ignore"):
                sizes = np.diff(np.array(body["informed"], dtype=float), prepend=0.0)
            assert np.array_equal(np.array(body["per_level"], dtype=float), sizes, equal_nan=True)
        if doc.get("params", {}).get("f") == 0.0:
            # unbounded from the second level on: its size is inf, the next ones nan
            assert body["per_level"] == ("0", "inf", "nan", "nan")


class TestSpread:
    def test_reference_values(self, tmp_path):
        code, out = run_cli(tmp_path, "spread", {"params": REF_PARAMS})
        assert code == 0
        doc = json.loads((out / "spread.json").read_text())
        assert doc["phi"] == pytest.approx(0.0100415, abs=1e-6)
        assert doc["k_d"] == 3
        assert doc["spread_tick"] == pytest.approx(0.04)
        assert doc["residual"] <= 1e-9

    def test_toxic_variant(self, tmp_path):
        params = dict(REF_PARAMS, tick=0.0, theta=0.005, rho=0.0)
        code, out = run_cli(tmp_path, "spread", {"params": params})
        assert code == 0
        doc = json.loads((out / "spread.json").read_text())
        assert doc["phi_theta"] > doc["theta_bar"]
        assert doc["phi_theta"] > doc["phi"]

    def test_toxic_root_near_theta_bar_is_accepted(self, tmp_path):
        # phi_theta lies 3.5e-4 (relative) above theta_bar and below the Pareto
        # scale, where emax(x) = E[B]/x makes the equation linear in 1/x: the
        # root is (E[B] + c theta_bar)/(1 + c), with no bisection step
        params = dict(REF_PARAMS, r=0.07024, f=0.000165, tick=0.0, theta=0.0005, rho=0.0)
        code, out = run_cli(tmp_path, "spread", {"params": params})
        assert code == 0
        doc = json.loads((out / "spread.json").read_text())
        assert doc["solver_iters"] == 0 and doc["residual"] < 1e-12
        assert doc["phi_theta"] == pytest.approx(0.0005001745077814121, rel=1e-12)

    def test_subnormal_root_solves(self, tmp_path):
        # phi = 2e-313 is subnormal, where one float step is 1e-10 relative:
        # the bisection ends at adjacent floats, and g changes sign between them
        r, f = 1e-300, 1e-7
        params = {"r": r, "f": f, "jump": {"type": "exponential", "rate": 1e6},
                  "volume": REF_PARAMS["volume"]}
        code, out = run_cli(tmp_path, "spread", {"params": params})
        assert code == 0
        phi = json.loads((out / "spread.json").read_text())["phi"]
        assert phi == 2e-313
        c = (1.0 / (2.0 * f)) * (1.0 / r - 1.0)
        x = np.array([phi, np.nextafter(phi, math.inf)])
        g = Exponential(1e6).emax_ratio(x) - (1.0 + c * (1.0 - 0.0 / x))
        assert g[0] >= 0.0 > g[1]

    def test_invalid_config_is_nonzero(self, tmp_path):
        code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, f=2.0)})
        assert code == 2

    @pytest.mark.parametrize("key", ["f", "theta", "r", "lambda_i"])
    def test_non_numeric_param_names_its_key(self, tmp_path, capsys, key):
        value = None if key in ("f", "theta") else "fast"
        code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, **{key: value})})
        assert code == 2
        assert f"params: {key} must be a number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,law,message", [
        ("jump", {"type": ["pareto"], "shape": 3.0, "scale": 0.005},
         "params: unknown jump law type ['pareto']"),
        ("volume", {"type": {"a": 1}, "sigma": 10.0},
         "params: unknown volume law type {'a': 1}"),
    ])
    def test_non_string_law_type_names_its_family(self, tmp_path, capsys, key, law, message):
        code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, **{key: law})})
        assert code == 2
        assert message in capsys.readouterr().err

    def test_theta_and_tick_together_rejected(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, theta=0.005)})
        assert code == 2
        assert (capsys.readouterr().err
                == "lobeq spread: set either theta > 0 or tick > 0, not both\n")
        assert not (out / "spread.json").exists()

    def test_zero_spread_regime_is_nonzero(self, tmp_path):
        code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, f=0.0)})
        assert code == 2

    def test_numeric_string_param_rejected(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, f="0.9")})
        assert code == 2
        assert "params: f must be a number, got '0.9'" in capsys.readouterr().err


class TestSimulate:
    BASE = {
        "params": REF_PARAMS,
        "simulate": {"n_events": 20000, "seed": 5, "n_levels": 6},
    }

    def test_outputs_and_schema(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", self.BASE)
        assert code == 0
        rows = read_csv(out / "pnl.csv")
        assert list(rows[0]) == ["maker_type", "level", "n_fills", "mean_gain", "std_err"]
        assert {r["maker_type"] for r in rows} == {"IMM", "NMM"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_events"] == 20000

    def test_seed_repetition_identical_files(self, tmp_path):
        cfg = write_config(tmp_path, self.BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "pnl.csv").read_bytes() == (out2 / "pnl.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, self.BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "pnl.csv").read_bytes() != (out2 / "pnl.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_rerun_from_manifest_reproduces(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", self.BASE)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg2 = write_config(tmp_path, manifest["config"], name="replay.json")
        out2 = tmp_path / "replayed"
        assert main(["simulate", "--config", cfg2, "--out", str(out2)]) == 0
        assert (out / "pnl.csv").read_bytes() == (out2 / "pnl.csv").read_bytes()

    @pytest.mark.parametrize("key, value, kind", [
        ("n_events", None, "an integer"), ("n_levels", "six", "an integer"),
        ("n_events", math.inf, "an integer"),
        ("n_events", "5", "an integer"), ("n_levels", True, "an integer"),
    ])
    def test_non_numeric_setting_names_its_key(self, tmp_path, capsys, key, value, kind):
        doc = {"params": REF_PARAMS, "simulate": dict(self.BASE["simulate"], **{key: value})}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert f"simulate: {key} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not (out / "pnl.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("n_events", 100.5), ("n_levels", 3.9), ("volume_scale", 10.5), ("seed", 1.5),
    ])
    def test_fractional_integer_setting_rejected(self, tmp_path, capsys, key, value):
        doc = {"params": REF_PARAMS, "simulate": dict(self.BASE["simulate"], **{key: value})}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert f"simulate: {key} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (out / "pnl.csv").exists()

    @pytest.mark.parametrize("config_seed, flags", [(-1, ()), (5, ("--seed", "-1"))])
    def test_negative_seed_names_its_key(self, tmp_path, capsys, config_seed, flags):
        doc = {"params": REF_PARAMS, "simulate": dict(self.BASE["simulate"], seed=config_seed)}
        code, out = run_cli(tmp_path, "simulate", doc, *flags)
        assert code == 2
        assert (capsys.readouterr().err
                == "lobeq simulate: seed must be a nonnegative integer, got -1\n")
        assert not (out / "pnl.csv").exists()

    def test_seed_required(self, tmp_path, capsys):
        doc = {"params": REF_PARAMS, "simulate": {"n_events": 10}}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert capsys.readouterr().err == "lobeq simulate: a seed is required (config or --seed)\n"
        assert not out.exists()

    def test_n_events_beyond_int64_exits_at_once(self, tmp_path, capsys):
        # 1e300 events would run on without end, a chunk at a time
        doc = {"params": REF_PARAMS, "simulate": dict(self.BASE["simulate"], n_events=1e300)}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert (capsys.readouterr().err == f"lobeq simulate: n_events must be below 2**63, "
                                           f"the int64 limit, got {int(1e300)}\n")
        assert not (out / "pnl.csv").exists()

    def test_integral_floats_accepted(self, tmp_path):
        # JSON 2e4 is a float; it names the integer 20000
        doc = {"params": REF_PARAMS,
               "simulate": {"n_events": 2e4, "seed": 5.0, "n_levels": 6.0, "volume_scale": 1e3}}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["n_events"] == 20000

    LOGGED = {**REF_PARAMS, "r": 0.15, "lambda_i": 0.15, "lambda_u": 0.85,
              "jump": {"type": "pareto", "shape": 2.5, "scale": 0.01}}

    @pytest.mark.parametrize("change, message", [
        ({"tick": 0.0}, "the closed-form book needs a positive tick to place levels, "
                        "got tick = 0.0"),
        ({"f": 0.0}, "the closed-form book is unbounded within the simulated levels"),
        ({"offset_d": 0.005}, "record_log puts levels on the tick grid and reads no offset_d; "
                              "got offset_d = 0.005"),
    ])
    def test_logged_run_errors_write_nothing(self, tmp_path, capsys, change, message):
        doc = {"params": {**self.LOGGED, **change},
               "simulate": {"n_events": 50, "seed": 7, "n_levels": 6,
                            "record_log": True, "volume_scale": 1000}}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert f"lobeq simulate: {message}" in capsys.readouterr().err
        assert not (out / "mbo.csv").exists() and not (out / "pnl.csv").exists()

    def test_fast_path_zero_tick_names_tick(self, tmp_path, capsys):
        doc = {"params": {**REF_PARAMS, "tick": 0.0}, "simulate": self.BASE["simulate"]}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert capsys.readouterr().err == ("lobeq simulate: the closed-form book needs a "
                                           "positive tick to place levels, got tick = 0.0\n")
        assert not (out / "pnl.csv").exists()

    def test_oversized_volume_scale_names_its_key(self, tmp_path, capsys):
        doc = {"params": self.LOGGED,
               "simulate": {"n_events": 50, "seed": 7, "n_levels": 6,
                            "record_log": True, "volume_scale": 1e30}}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert (f"lobeq simulate: volume_scale {int(1e30)} is too large"
                in capsys.readouterr().err)
        assert not (out / "mbo.csv").exists() and not (out / "pnl.csv").exists()

    def test_unbounded_fast_path_book_blames_the_levels(self, tmp_path, capsys):
        # with f = 0.7 only the levels at and beyond the 0.03 point mass face
        # no adverse selection: three levels run, five are unbounded
        params = {**REF_PARAMS, "r": 0.3, "f": 0.7, "jump": {"type": "pointmass", "value": 0.03}}
        doc = {"params": params, "simulate": {"n_events": 100, "seed": 1, "n_levels": 3}}
        (tmp_path / "three").mkdir()
        assert run_cli(tmp_path / "three", "simulate", doc)[0] == 0
        doc["simulate"]["n_levels"] = 5
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert capsys.readouterr().err == (
            "lobeq simulate: the closed-form book is unbounded within the simulated levels; "
            "reduce n_levels to stay inside the adversely selected range\n")
        assert not (out / "pnl.csv").exists()

    def test_record_log_writes_mbo(self, tmp_path):
        doc = {
            "params": {**REF_PARAMS, "r": 0.15, "lambda_i": 0.15, "lambda_u": 0.85,
                       "jump": {"type": "pareto", "shape": 2.5, "scale": 0.01}},
            "simulate": {"n_events": 1500, "seed": 7, "n_levels": 6,
                         "record_log": True, "volume_scale": 1000},
        }
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 0
        assert (out / "mbo.csv").exists()
        header = (out / "mbo.csv").read_text().splitlines()[0]
        assert header == "ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label"

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_record_log_must_be_a_json_boolean(self, tmp_path, capsys, value):
        doc = {"params": REF_PARAMS, "simulate": dict(self.BASE["simulate"], record_log=value)}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert (f"simulate: record_log must be true or false, got {value!r}"
                in capsys.readouterr().err)
        assert not (out / "pnl.csv").exists() and not (out / "mbo.csv").exists()


class TestSignature:
    def make_log(self, tmp_path):
        doc = {
            "params": {"r": 0.15, "f": 0.9,
                       "jump": {"type": "pareto", "shape": 2.5, "scale": 0.01},
                       "volume": {"type": "normal", "sigma": 10.0},
                       "tick": 0.01, "offset_d": 0.0,
                       "lambda_i": 0.15, "lambda_u": 0.85},
            "simulate": {"n_events": 3000, "seed": 7, "n_levels": 6,
                         "record_log": True, "volume_scale": 1000},
        }
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 0
        return out / "mbo.csv"

    def test_curves_written(self, tmp_path):
        log = self.make_log(tmp_path)
        doc = {
            "signature": {
                "input": str(log),
                "reference": "micro",
                "horizons_s": [0.0, 1.0, 10.0],
                "clusters": [
                    # threshold grid matching the multi-bucket passive setup
                    {"metric": "trade_to_add", "thresholds": [1e4, 1e7, 1e9],
                     "side": "passive"},
                    {"metric": "volume_ratio", "thresholds": [0.25, 0.5, 0.75],
                     "side": "aggressive"},
                ],
            },
        }
        cfg = write_config(tmp_path, doc, name="sig.json")
        out = tmp_path / "sig_out"
        assert main(["signature", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "signature_0_trade_to_add.csv")
        assert list(rows[0]) == ["horizon", "cluster_id", "st_value", "n_trades"]
        ratio_rows = read_csv(out / "signature_1_volume_ratio.csv")
        horizons = {float(r["horizon"]) for r in ratio_rows}
        assert horizons == {0.0, 1.0, 10.0}
        for rows_set in (rows, ratio_rows):
            by_cluster = {}
            for r in rows_set:
                by_cluster.setdefault(r["cluster_id"], set()).add(r["n_trades"])
            for counts in by_cluster.values():
                assert len(counts) == 1      # horizon-independent counts

    GOOD_CLUSTER = {"metric": "trade_to_trade", "thresholds": [1e7], "side": "aggressive"}

    def test_horizon_past_int64_reads_the_last_quote(self, tmp_path):
        # every trade time plus 1e6 s is past the log's last quote; adding
        # 9.223372e9 s would wrap int64 to a negative time
        log = self.make_log(tmp_path)
        doc = {"signature": {"input": str(log), "horizons_s": [1e6, 9.223372e9],
                             "clusters": [self.GOOD_CLUSTER]}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        out = tmp_path / "sig_out"
        assert main(["signature", "--config", cfg, "--out", str(out)]) == 0
        by_horizon = {}
        for row in read_csv(out / "signature_0_trade_to_trade.csv"):
            by_horizon.setdefault(row["horizon"], []).append(
                (row["cluster_id"], row["st_value"], row["n_trades"]))
        assert len(by_horizon) == 2
        near, far = by_horizon.values()
        assert near == far

    @pytest.mark.parametrize("change, message", [
        ({"reference": "vwap"},
         "signature: unknown reference 'vwap'; expected one of ('micro', 'mid', 'touched')"),
        ({"horizons_s": [1.0, math.nan]}, "signature: horizons_s must be finite, got nan"),
        ({"horizons_s": [1.0, None]}, "signature: horizons_s[1] must be a number, got None"),
        ({"horizons_s": 5}, "signature: horizons_s must be a list of numbers, got 5"),
        ({"clusters": [GOOD_CLUSTER, dict(GOOD_CLUSTER, thresholds=[2.0, 1.0])]},
         "signature cluster 1: thresholds must be finite and strictly increasing"),
        ({"clusters": [GOOD_CLUSTER, dict(GOOD_CLUSTER, thresholds=[1.0, math.nan])]},
         "signature cluster 1: thresholds must be finite and strictly increasing, got (1.0, nan)"),
        ({"clusters": [GOOD_CLUSTER, dict(GOOD_CLUSTER, thresholds=[None])]},
         "signature cluster 1: thresholds[0] must be a number, got None"),
        ({"clusters": [GOOD_CLUSTER, dict(GOOD_CLUSTER, thresholds="123")]},
         "signature cluster 1: thresholds must be a list of numbers, got '123'"),
        ({"clusters": [GOOD_CLUSTER, dict(GOOD_CLUSTER, thresholds=[True, 2])]},
         "signature cluster 1: thresholds[0] must be a number, got True"),
        ({"tick": ""}, "signature: tick must be a number, got ''"),
        ({"tick": False}, "signature: tick must be a number, got False"),
        ({"horizons_s": [1.0, 1e12]},
         "signature: horizons_s[1] must fit in int64 ns, got 1000000000000.0"),
        ({"horizons_s": [-1e10]},
         "signature: horizons_s[0] must fit in int64 ns, got -10000000000.0"),
        ({"horizons_s": []}, "signature: horizons_s must not be empty"),
        ({"clusters": []}, "signature: clusters must not be empty"),
        ({"clusters": [GOOD_CLUSTER, dict(GOOD_CLUSTER, metric=[1])]},
         f"signature cluster 1: unknown metric [1]; expected one of {sorted(METRICS)}"),
        ({"horizons_s": [0.0, 1e300]},
         "signature: horizons_s[1] must fit in int64 ns, got 1e+300"),
        ({"input": [1]}, "signature: input must be a path string, got [1]"),
        ({"input": None}, "signature: input must be a path string, got None"),
        ({"input": 2.5}, "signature: input must be a path string, got 2.5"),
    ])
    def test_config_checked_before_the_log_is_read(self, tmp_path, capsys, change, message):
        doc = {"signature": {"input": str(tmp_path / "never_read.csv"), "horizons_s": [0.0, 1.0],
                             "clusters": [self.GOOD_CLUSTER], **change}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        out = tmp_path / "sig_out"
        assert main(["signature", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("signature_*.csv"))

    def test_null_or_zero_tick_means_no_tick(self, tmp_path):
        log = self.make_log(tmp_path)
        curves = []
        for tick in ({}, {"tick": None}, {"tick": 0}):
            doc = {"signature": {"input": str(log), "horizons_s": [0.0, 1.0],
                                 "clusters": [self.GOOD_CLUSTER], **tick}}
            cfg = write_config(tmp_path, doc, name="sig.json")
            out = tmp_path / "sig_out"
            assert main(["signature", "--config", cfg, "--out", str(out)]) == 0
            curves.append((out / "signature_0_trade_to_trade.csv").read_bytes())
        assert curves[0] == curves[1] == curves[2]

    @pytest.mark.parametrize("tick", [math.inf, -0.01, math.nan])
    def test_bad_tick_rejected_before_the_log_is_read(self, tmp_path, capsys, tick):
        doc = {"signature": {"input": str(tmp_path / "never_read.csv"), "tick": tick,
                             "horizons_s": [0.0], "clusters": [self.GOOD_CLUSTER]}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        assert main(["signature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"signature: tick must be positive and finite, got {tick}"
                in capsys.readouterr().err)

    def test_bad_second_cluster_writes_no_curves(self, tmp_path, capsys):
        log = self.make_log(tmp_path)
        bad = {"metric": "trade_to_add", "thresholds": [1e7], "side": "aggressive"}
        doc = {"signature": {"input": str(log), "horizons_s": [0.0, 1.0],
                             "clusters": [self.GOOD_CLUSTER, bad]}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        out = tmp_path / "sig_out"
        assert main(["signature", "--config", cfg, "--out", str(out)]) == 2
        assert ("signature cluster 1: metric 'trade_to_add' applies to the passive side"
                in capsys.readouterr().err)
        assert not list(out.glob("signature_*.csv"))

    # asks only until t = 50; order 3 is the first add at its level, added after
    # the trade at t = 20, and its fill at t = 40 meets the one-sided book
    ONE_SIDED_LOG = """\
ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label
10,1,add,ask,100.01,1,,
20,2,add,bid,100.01,1,,
20,1,execute,ask,100.01,1,false,
20,2,execute,bid,100.01,1,true,
30,3,add,ask,100.02,5,,
40,4,add,bid,100.02,1,,
40,3,execute,ask,100.02,1,false,
40,4,execute,bid,100.02,1,true,
50,5,add,bid,99.99,5,,
60,6,add,ask,100.02,1,,
70,7,add,bid,100.02,5,,
70,3,execute,ask,100.02,4,false,
70,7,execute,bid,100.02,4,true,
70,6,execute,ask,100.02,1,false,
70,7,execute,bid,100.02,1,true,
"""

    def test_failed_later_cluster_writes_no_curves(self, tmp_path, capsys):
        # add_to_add reads only order 6's fill, on a two-sided book; trade_to_add
        # also reads order 3's fill at t = 40, whose mid is undefined
        log = tmp_path / "one_sided.csv"
        log.write_text(self.ONE_SIDED_LOG)
        clusters = [{"metric": "add_to_add", "thresholds": [1e7], "side": "passive"},
                    {"metric": "trade_to_add", "thresholds": [1e7], "side": "passive"}]
        for n_clusters, code in ((1, 0), (2, 2)):
            doc = {"signature": {"input": str(log), "reference": "mid", "horizons_s": [0.0],
                                 "clusters": clusters[:n_clusters]}}
            cfg = write_config(tmp_path, doc, name="sig.json")
            out = tmp_path / f"sig_out_{n_clusters}"
            assert main(["signature", "--config", cfg, "--out", str(out)]) == code
        assert (tmp_path / "sig_out_1" / "signature_0_add_to_add.csv").exists()
        assert capsys.readouterr().err == (
            "lobeq signature: signature cluster 1: reference lookup failed for trade of order 3 "
            "at t = 40 + k = 0: one-sided book at t = 40: mid undefined\n")
        assert not out.exists()

    def test_zero_unit_add_rejected(self, tmp_path, capsys):
        log = tmp_path / "zero_add.csv"
        log.write_text(self.ONE_SIDED_LOG.replace("30,3,add,ask,100.02,5,,",
                                                  "30,3,add,ask,100.02,0,,"))
        doc = {"signature": {"input": str(log), "horizons_s": [0.0],
                             "clusters": [self.GOOD_CLUSTER]}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        out = tmp_path / "sig_out"
        assert main(["signature", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "lobeq signature: row 6: zero qty on add\n"
        assert not list(out.glob("signature_*.csv"))

    def test_cluster_without_defined_trades_rejected(self, tmp_path, capsys):
        # the one trade fills order 1, added before any trade, so its
        # trade_to_add is undefined; the volume ratio of the aggressor is not
        log = tmp_path / "one_trade.csv"
        log.write_text("ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label\n"
                       "10,1,add,ask,100.01,1,,\n20,2,add,bid,99.99,1,,\n"
                       "30,3,add,bid,100.01,1,,\n30,1,execute,ask,100.01,1,false,\n"
                       "30,3,execute,bid,100.01,1,true,\n40,4,add,ask,100.02,1,,\n")
        clusters = [{"metric": "volume_ratio", "thresholds": [0.5], "side": "aggressive"},
                    {"metric": "trade_to_add", "thresholds": [1e7], "side": "passive"}]
        for n_clusters, code in ((1, 0), (2, 2)):
            doc = {"signature": {"input": str(log), "horizons_s": [0.0, 1.0],
                                 "clusters": clusters[:n_clusters]}}
            cfg = write_config(tmp_path, doc, name="sig.json")
            out = tmp_path / f"sig_out_{n_clusters}"
            assert main(["signature", "--config", cfg, "--out", str(out)]) == code
        assert len(read_csv(tmp_path / "sig_out_1" / "signature_0_volume_ratio.csv")) == 2
        assert capsys.readouterr().err == ("lobeq signature: signature cluster 1: no passive "
                                           "trade has a defined trade_to_add\n")
        assert not out.exists()

    def test_bucket_without_traded_volume_rejected(self, tmp_path, capsys):
        # order 5's one fill is for 0 units, so its trade_to_add bucket would
        # sum no volume; parse rejects the 0-unit add before any bucket is
        # formed (signature_curves' own check: test_signature.py)
        log = tmp_path / "zero_fill.csv"
        log.write_text("ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label\n"
                       "1,1,add,ask,100.01,5,,\n1,2,add,bid,99.99,5,,\n"
                       "2,3,add,bid,100.01,2,,\n2,1,execute,ask,100.01,2,false,\n"
                       "2,3,execute,bid,100.01,2,true,\n3,5,add,bid,99.98,4,,\n"
                       "4,6,add,ask,99.98,0,,\n4,5,execute,bid,99.98,0,false,\n"
                       "4,6,execute,ask,99.98,0,true,\n5,7,add,ask,100.02,1,,\n")
        doc = {"signature": {"input": str(log), "horizons_s": [0.0],
                             "clusters": [{"metric": "trade_to_add", "thresholds": [1e7],
                                           "side": "passive"}]}}
        code, out = run_cli(tmp_path, "signature", doc)
        assert code == 2
        assert capsys.readouterr().err == "lobeq signature: row 8: zero qty on add\n"
        assert not out.exists()

    def test_unreadable_log_names_its_row(self, tmp_path, capsys):
        log = tmp_path / "big.csv"
        log.write_text("ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label\n"
                       f"10,1,add,ask,100.01,5,,{'x' * 140_000}\n11,2,add,mid,100.01,5,,\n")
        doc = {"signature": {"input": str(log), "horizons_s": [0.0],
                             "clusters": [self.GOOD_CLUSTER]}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        assert main(["signature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "lobeq signature: row 3: unknown side 'mid'\n"

    def test_empty_log_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label\n")
        doc = {"signature": {"input": str(empty), "horizons_s": [0.0],
                             "clusters": [{"metric": "trade_to_trade",
                                           "thresholds": [1e7], "side": "aggressive"}]}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        assert main(["signature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSweep:
    def test_grid_cardinality_and_monotone_phi(self, tmp_path):
        doc = {
            "sweep": {
                "r_values": [0.05 + 0.09 * k for k in range(10)],
                "f_values": [0.1 * k for k in range(1, 11)],
                "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005},
                "volume": {"type": "normal", "sigma": 10.0},
                "probe_x": [0.02, 0.05],
            },
        }
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 100
        by_r = {}
        for row in rows:
            by_r.setdefault(row["r"], []).append((float(row["f"]), float(row["phi"])))
        for cells in by_r.values():
            phis = [phi for _f, phi in sorted(cells)]
            assert all(b >= a for a, b in zip(phis, phis[1:]))

    def test_single_cell_matches_spread(self, tmp_path):
        doc = {
            "sweep": {
                "r_values": [0.9], "f_values": [0.9],
                "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005},
                "volume": {"type": "normal", "sigma": 10.0},
                "tick": 0.01,
            },
        }
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 0
        row = read_csv(out / "sweep.csv")[0]
        code2, out2 = run_cli(tmp_path, "spread", {"params": REF_PARAMS})
        assert code2 == 0
        doc2 = json.loads((out2 / "spread.json").read_text())
        assert float(row["phi"]) == doc2["phi"]
        assert int(row["k_d"]) == doc2["k_d"]


    def test_mixed_grid_matches_scalar_solves(self, tmp_path):
        # f = 0 and r = 0 (zero-spread rows), toxic cells next to tick cells,
        # an exponential law and a probe deep enough for unbounded depth
        sweep = {
            "r_values": [0.0, 0.3, 0.9], "f_values": [0.0, 0.5, 1.0],
            "theta_values": [0.0, 0.002], "probe_x": [0.004, 0.02, 0.5],
            "jump": {"type": "exponential", "rate": 100.0},
            "volume": {"type": "normal", "sigma": 10.0},
            "tick": 0.01, "offset_d": 0.003, "rho": 0.2,
        }
        code, out = run_cli(tmp_path, "sweep", {"sweep": sweep})
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        cells = list(itertools.product(sweep["r_values"], sweep["f_values"],
                                       sweep["theta_values"]))
        assert len(rows) == len(cells)
        probes = np.array(sweep["probe_x"])
        n_inf = 0
        for row, (r, f, theta) in zip(rows, cells):
            p = ModelParams(r=r, f=f, theta=theta, jump=Exponential(100.0),
                            volume=NormalVolume(10.0), rho=0.2, tick=0.01, offset_d=0.003)
            want = [r, f, theta]
            try:
                sol = spread(p)
                # a sweep reports the toxic half-spread of a toxic cell, the
                # tick quantities of the others
                toxic = theta > 0.0
                want += [sol.phi, sol.mu, sol.phi_theta if toxic else None,
                         None if toxic else sol.k_d, None if toxic else sol.spread_tick]
            except ZeroSpreadRegime:
                want += [0.0, None, None, None, None]
            want += book_curves(p, probes)[0].tolist()
            got = [None if text == "" else float(text) for text in row.values()]
            assert got == want
            assert row["k_d"] == ("" if want[6] is None else str(want[6]))
            n_inf += row["L_at_0.5"] == "inf"
        assert n_inf > 0

    def test_toxic_cell_without_root_names_cell(self, tmp_path, capsys):
        doc = {"sweep": {"r_values": [0.5], "f_values": [0.5], "theta_values": [0.0, 0.01],
                         "jump": {"type": "pointmass", "value": 0.001},
                         "volume": {"type": "normal", "sigma": 10.0}}}
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 2
        assert "(r, f, theta) = (0.5, 0.5, 0.01)" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_toxic_cell_without_root_exact_error(self, tmp_path, capsys):
        # theta_bar 0.02 is past the point mass at 0.01, where emax is 1
        sweep = {"r_values": [0.3, 0.5], "f_values": [0.5], "theta_values": [0.0, 0.02],
                 "jump": {"type": "pointmass", "value": 0.01}, "volume": REF_PARAMS["volume"]}
        message = ("spread equation has no root above theta_bar = 0.02 at cell "
                   "(r, f, theta) = (0.3, 0.5, 0.02): emax just above it is 1.0, not above 1")
        code, out = run_cli(tmp_path, "sweep", {"sweep": sweep})
        assert code == 2
        assert capsys.readouterr().err == f"lobeq sweep: {message}\n"
        assert not out.exists()
        grid = ParamGrid(r=[0.3, 0.3, 0.5, 0.5], f=0.5, theta=[0.0, 0.02, 0.0, 0.02],
                         jump=PointMass(0.01), volume=NormalVolume(10.0))
        with pytest.raises(SolverError) as info:
            solve_spreads(grid)
        assert str(info.value) == message

    def test_toxic_roots_near_theta_bar_match_spread(self, tmp_path):
        # three cells of the perfbench sweep grid widened to 1M cells whose
        # toxic roots lie within 4e-4 (relative) of theta_bar: each is
        # solved, as spread solves it
        r_values = [0.07024, 0.074636, 0.079591]
        sweep = {"r_values": r_values, "f_values": [0.000165], "theta_values": [0.0005],
                 "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}
        code, out = run_cli(tmp_path, "sweep", {"sweep": sweep})
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        for row, r in zip(rows, r_values):
            params = dict(REF_PARAMS, r=r, f=0.000165, tick=0.0, theta=0.0005, rho=0.0)
            code, one = run_cli(tmp_path, "spread", {"params": params})
            assert code == 0
            doc = json.loads((one / "spread.json").read_text())
            assert doc["theta_bar"] < doc["phi_theta"] < doc["theta_bar"] * (1.0 + 4e-4)
            assert [float(row[k]) for k in ("phi", "mu", "phi_theta")] == [
                doc["phi"], doc["mu"], doc["phi_theta"]]

    def test_infinite_probe_is_unbounded(self, tmp_path):
        doc = {"sweep": {"r_values": [0.0, 0.5], "f_values": [0.5, 1.0],
                         "theta_values": [0.0, 0.001], "probe_x": [0.05, math.inf],
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 8
        assert all(row["L_at_inf"] == "inf" for row in rows)

    def test_nan_probe_names_its_index(self, tmp_path, capsys):
        doc = {"sweep": {"r_values": [0.5], "f_values": [0.5], "probe_x": [0.05, math.nan],
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 2
        assert "distance nan at index 1" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("key, values, message", [
        ("r_values", [0.5, None], "sweep: r_values[1] must be a number, got None"),
        ("f_values", None, "sweep: f_values must be a list of numbers, got None"),
        ("theta_values", [0.0, "high"], "sweep: theta_values[1] must be a number, got 'high'"),
        ("probe_x", [None], "sweep: probe_x[0] must be a number, got None"),
        ("probe_x", [0.01, 0.02, 0.01], "sweep: probe_x[2] repeats probe_x[0] = 0.01"),
    ])
    def test_non_numeric_value_list_names_its_key(self, tmp_path, capsys, key, values, message):
        doc = {"sweep": {"r_values": [0.5], "f_values": [0.5], key: values,
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("key", ["r_values", "f_values", "theta_values"])
    def test_empty_value_list_names_its_key(self, tmp_path, capsys, key):
        doc = {"sweep": {"r_values": [0.5], "f_values": [0.5], key: [],
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 2
        assert capsys.readouterr().err == f"lobeq sweep: {key} must not be empty\n"
        assert not (out / "sweep.csv").exists()

    def test_empty_probe_list_accepted(self, tmp_path):
        doc = {"sweep": {"r_values": [0.5], "f_values": [0.5], "probe_x": [],
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 0
        assert len(read_csv(out / "sweep.csv")) == 1

    def test_out_of_range_r_rejected(self, tmp_path, capsys):
        doc = {"sweep": {"r_values": [0.5, 1.5], "f_values": [0.5],
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, _out = run_cli(tmp_path, "sweep", doc)
        assert code == 2
        assert "r = 1.5 must lie in [0, 1)" in capsys.readouterr().err


def law_in_params(family, law):
    """(command, config, section prefix) with ``law`` as a params law."""
    return "spread", {"params": {**REF_PARAMS, family: law}}, "params: "


def law_in_multi(family, law):
    """The same with ``law`` as a multi-source jump law or the multi volume law."""
    source = {"r": 0.2, "f": 0.5, "jump": REF_PARAMS["jump"]}
    multi = {"sources": [source], "volume": REF_PARAMS["volume"]}
    if family == "jump":
        multi["sources"] = [{**source, "jump": law}]
        where = "multi: source 0: "
    else:
        multi["volume"] = law
        where = "multi: "
    return "shape", {"multi": multi, "shape": {"variant": "multi", "x_grid": [0.01]}}, where


def law_in_sweep(family, law):
    """The same with ``law`` as a sweep law."""
    sweep = {"r_values": [0.5], "f_values": [0.5], "jump": REF_PARAMS["jump"],
             "volume": REF_PARAMS["volume"], family: law}
    return "sweep", {"sweep": sweep}, ""


class TestLawRecords:
    def test_roundtrip(self):
        # each tagged record builds its law, whose fields are the record's numbers
        for family, law, record in (
            ("jump", Pareto(3.0, 0.005), {"type": "pareto", "shape": 3.0, "scale": 0.005}),
            ("jump", Exponential(50.0), {"type": "exponential", "rate": 50.0}),
            ("jump", PointMass(0.02), {"type": "pointmass", "value": 0.02}),
            ("volume", NormalVolume(10.0), {"type": "normal", "sigma": 10.0}),
            ("volume", LaplaceVolume(2.0), {"type": "laplace", "b": 2.0}),
        ):
            assert _Section({family: record}, "", (family,)).law(family) == law
            assert {"type": record["type"], **dataclasses.asdict(law)} == record

    FAULTS = [
        ("jump", 5, "jump law: expected a JSON object, got 5"),
        ("jump", {"shape": 3.0}, "jump law: missing required key 'type'"),
        ("jump", {"type": "cauchy"},
         "unknown jump law type 'cauchy'; expected one of ['exponential', 'pareto', 'pointmass']"),
        ("volume", {"type": "pareto", "shape": 3.0, "scale": 1.0},
         "unknown volume law type 'pareto'; expected one of ['laplace', 'normal']"),
        ("jump", {"type": "pareto", "shape": 3.0},
         "jump law 'pareto': missing required key 'scale'"),
        ("volume", {"type": "normal", "sigma": 1.0, "mu": 3.0},
         "volume law 'normal': unknown keys ['mu']"),
        ("jump", {"type": "exponential", "rate": None},
         "jump law 'exponential': rate must be a number, got None"),
        ("jump", {"type": "exponential", "rate": -1.0},
         "jump law 'exponential': Exponential rate must be positive"),
        ("jump", {"type": "pareto", "shape": 3.0, "scale": 1e300},
         "jump law 'pareto': Pareto scale 1e+300 to the power shape 3.0 overflows a float"),
    ]

    @pytest.mark.parametrize("place", [law_in_params, law_in_multi, law_in_sweep],
                             ids=["params", "multi", "sweep"])
    def test_errors(self, tmp_path, capsys, place):
        # every law-record fault names the section holding the record once
        for k, (family, law, message) in enumerate(self.FAULTS):
            command, doc, where = place(family, law)
            (tmp_path / str(k)).mkdir()
            code, out = run_cli(tmp_path / str(k), command, doc)
            assert code == 2
            assert capsys.readouterr().err == f"lobeq {command}: {where}{message}\n"
            assert not out.exists()


class TestPlumbing:
    SOURCE = {"r": 0.2, "f": 0.5, "jump": REF_PARAMS["jump"]}
    MULTI = {"sources": [SOURCE], "volume": REF_PARAMS["volume"]}
    CLUSTER = {"metric": "trade_to_trade", "thresholds": [1e7], "side": "aggressive"}
    SIGNATURE = {"input": "never_read.csv", "horizons_s": [0.0], "clusters": [CLUSTER]}
    SWEEP = {"r_values": [0.5], "f_values": [0.5], "jump": REF_PARAMS["jump"],
             "volume": REF_PARAMS["volume"]}

    @pytest.mark.parametrize("command, doc, message", [
        ("spread", {"params": {**REF_PARAMS, "sigma": 10.0}}, "params: unknown keys ['sigma']"),
        ("simulate", {"params": REF_PARAMS, "simulate": {"n_events": 10, "seed": 1, "levels": 4}},
         "simulate: unknown keys ['levels']"),
        ("sweep", {"sweep": {**SWEEP, "typo_key": 1}}, "sweep: unknown keys ['typo_key']"),
        ("signature", {"signature": {**SIGNATURE, "horizon_s": [1.0]}},
         "signature: unknown keys ['horizon_s']"),
        ("signature", {"signature": {**SIGNATURE,
                                     "clusters": [CLUSTER, {**CLUSTER, "metrics": 1}]}},
         "signature cluster 1: unknown keys ['metrics']"),
        ("shape", {"params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 4,
                                                   "x_grid": [0.01]}},
         "shape: unknown keys ['x_grid']"),
        ("shape", {"params": REF_PARAMS, "shape": {"variant": "toxic", "x_grid": [0.01],
                                                   "n_levels": 4}},
         "shape: unknown keys ['n_levels']"),
        ("shape", {"params": REF_PARAMS, "shape": {"variant": "continuous", "x_grid": [0.01],
                                                   "n_points": 5, "x_min": 0.01}},
         "shape: x_grid excludes ['n_points', 'x_min']"),
        ("shape", {"multi": {**MULTI, "theta": 0.1},
                   "shape": {"variant": "multi", "x_grid": [0.01]}},
         "multi: unknown keys ['theta']"),
        ("shape", {"multi": {**MULTI, "sources": [SOURCE, {**SOURCE, "tick": 0.01}]},
                   "shape": {"variant": "multi", "x_grid": [0.01]}},
         "multi: source 1: unknown keys ['tick']"),
        ("simulate", {"params": REF_PARAMS, "simulate": {"n_events": 10, "seed": 1, "p0": 100.0}},
         "simulate: unknown keys ['p0']"),
    ])
    def test_unknown_key_names_its_section(self, tmp_path, capsys, command, doc, message):
        # a section named like its command is named once, by the command
        code, out = run_cli(tmp_path, command, doc)
        assert code == 2
        assert (capsys.readouterr().err
                == f"lobeq {command}: {message.removeprefix(command + ': ')}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("signature", {"signatur": SIGNATURE, "sed": 5, "signature": SIGNATURE},
         "config: unknown keys ['sed', 'signatur']"),
        ("spread", {"params": REF_PARAMS, "simulate": {"n_events": 10}},
         "config: unknown keys ['simulate']"),
        ("sweep", {"sweep": SWEEP, "params": REF_PARAMS}, "config: unknown keys ['params']"),
        ("shape", {"params": REF_PARAMS, "multi": MULTI,
                   "shape": {"variant": "multi", "x_grid": [0.01]}},
         "config: unknown keys ['params']"),
        ("shape", {"params": REF_PARAMS, "multi": MULTI,
                   "shape": {"variant": "tick", "n_levels": 4}},
         "config: unknown keys ['multi']"),
    ])
    def test_unknown_root_key_rejected(self, tmp_path, capsys, command, doc, message):
        code, out = run_cli(tmp_path, command, {**doc, "seed": 1, "out": "ignored"})
        assert code == 2
        assert capsys.readouterr().err == f"lobeq {command}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", 1.5, [1], True])
    @pytest.mark.parametrize("command, doc", [
        ("shape", {"params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 4}}),
        ("spread", {"params": REF_PARAMS}),
        ("simulate", {"params": REF_PARAMS, "simulate": {"n_events": 10, "seed": 1}}),
        ("signature", {"signature": SIGNATURE}),
        ("sweep", {"sweep": SWEEP}),
    ])
    def test_root_seed_must_be_an_integer(self, tmp_path, capsys, command, doc, seed):
        # checked for every command, and with --seed given too
        for flags in ((), ("--seed", "3")):
            code, out = run_cli(tmp_path, command, {**doc, "seed": seed}, *flags)
            assert code == 2
            assert (capsys.readouterr().err
                    == f"lobeq {command}: config: seed must be an integer, got {seed!r}\n")
            assert not out.exists()

    @pytest.mark.parametrize("command, doc", [
        ("shape", {"params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 4}}),
        ("spread", {"params": REF_PARAMS}),
        ("simulate", {"params": REF_PARAMS, "simulate": {"n_events": 10, "seed": 1}}),
        ("signature", {"signature": SIGNATURE}),
        ("sweep", {"sweep": SWEEP}),
    ])
    def test_negative_root_seed_rejected(self, tmp_path, capsys, command, doc):
        # the root key and the flag, read for every command before anything is written
        for seed, flags, message in ((-1, (), "config: seed must be a nonnegative integer, "
                                              "got -1"),
                                     (1, ("--seed", "-5"), "seed must be a nonnegative "
                                                           "integer, got -5")):
            code, out = run_cli(tmp_path, command, {**doc, "seed": seed}, *flags)
            assert code == 2
            assert capsys.readouterr().err == f"lobeq {command}: {message}\n"
            assert not out.exists()

    def test_empty_source_list_rejected(self, tmp_path, capsys):
        # one rule for every list of sections, as for clusters
        doc = {"multi": {**self.MULTI, "sources": []},
               "shape": {"variant": "multi", "x_grid": [0.01]}}
        code, out = run_cli(tmp_path, "shape", doc)
        assert code == 2
        assert capsys.readouterr().err == "lobeq shape: multi: sources must not be empty\n"
        assert not out.exists()

    # 2**45 float64 values are 256 TiB, past the 47-bit user address space,
    # so the allocation fails at once under any overcommit setting
    @pytest.mark.parametrize("command, doc", [
        ("shape", {"params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 2**45}}),
        ("simulate", {"params": REF_PARAMS,
                      "simulate": {"n_events": 10, "seed": 1, "n_levels": 2**45}}),
        ("shape", {"params": {**REF_PARAMS, "tick": 0.0},
                   "shape": {"variant": "continuous", "x_min": 0.01, "x_max": 1.0,
                             "n_points": 2**45}}),
    ])
    def test_impossible_size_exits_2(self, tmp_path, capsys, command, doc):
        code, out = run_cli(tmp_path, command, doc)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"lobeq {command}: Unable to allocate 256. TiB") and \
            err.count("\n") == 1, err
        assert not out.exists()

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nested.json"
        cfg.write_text("[" * 100_000)
        out = tmp_path / "out"
        assert main(["shape", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lobeq shape: maximum recursion depth exceeded") and \
            err.count("\n") == 1, err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["spread", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["spread", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_out_dir_required(self, tmp_path):
        cfg = write_config(tmp_path, {"params": REF_PARAMS})
        assert main(["spread", "--config", cfg]) == 2

    @pytest.mark.parametrize("value", [5, True, [1], {"a": 1}])
    @pytest.mark.parametrize("flags", [(), ("--out", "elsewhere")])
    def test_config_out_must_be_a_path_string(self, tmp_path, capsys, value, flags):
        cfg = write_config(tmp_path, {"params": REF_PARAMS, "out": value})
        assert main(["spread", "--config", cfg, *flags]) == 2
        assert (capsys.readouterr().err
                == f"lobeq spread: config: out must be a path string, got {value!r}\n")

    def test_out_dir_from_config(self, tmp_path):
        cfg = write_config(tmp_path, {"params": REF_PARAMS,
                                      "out": str(tmp_path / "from_cfg")})
        assert main(["spread", "--config", cfg]) == 0
        assert (tmp_path / "from_cfg" / "spread.json").exists()

    def test_log_level_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOB_LOG_LEVEL", "verbose")
        cfg = write_config(tmp_path, {"params": REF_PARAMS})
        assert main(["spread", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        monkeypatch.setenv("LOB_LOG_LEVEL", "info")
        assert main(["spread", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_seventeen_digit_rendering(self, tmp_path):
        code, out = run_cli(tmp_path, "spread", {"params": REF_PARAMS})
        assert code == 0
        doc = json.loads((out / "spread.json").read_text())
        code2, out2 = run_cli(tmp_path, "sweep", {
            "sweep": {"r_values": [0.9], "f_values": [0.9], "tick": 0.01,
                      "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}})
        assert code2 == 0
        row = read_csv(out2 / "sweep.csv")[0]
        # CSV text round-trips to the exact float
        assert float(row["phi"]) == doc["phi"]

    def test_start_up_loads_no_scipy(self):
        # scipy is a test dependency only; a fresh interpreter running any
        # lobeq command must not pay for importing it
        probe = ("import pkgutil, sys, lobeq, lobeq.cli\n"
                 "for m in pkgutil.iter_modules(lobeq.__path__, 'lobeq.'):\n"
                 "    __import__(m.name)\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_load_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma lazily (about 15 ms); one fresh
        # interpreter runs every command and must not pay for it
        logged = dict(REF_PARAMS, r=0.15, lambda_i=0.15, lambda_u=0.85)
        log = tmp_path / "logged" / "mbo.csv"
        commands = [
            ("shape", {"params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 4}}),
            ("spread", {"params": REF_PARAMS}),
            ("simulate", {"params": REF_PARAMS,
                          "simulate": {"n_events": 2000, "seed": 1, "n_levels": 4}}),
            ("simulate", {"params": logged,
                          "simulate": {"n_events": 300, "seed": 1, "n_levels": 4,
                                       "record_log": True, "volume_scale": 1000}}),
            ("signature", {"signature": {
                "input": str(log), "horizons_s": [0.0, 1.0],
                "clusters": [{"metric": "update_count", "thresholds": [1, 2],
                              "side": "passive"}]}}),
            ("sweep", {"sweep": {"r_values": [0.5, 0.9], "f_values": [0.9, 0.5],
                                 "theta_values": [0.0, 0.001], "tick": 0.01,
                                 "jump": REF_PARAMS["jump"],
                                 "volume": REF_PARAMS["volume"]}}),
        ]
        outs = ["shape", "spread", "fast", "logged", "signature", "sweep"]
        argvs = [[command, "--config", write_config(tmp_path, doc, f"{out}.json"),
                  "--out", str(tmp_path / out)]
                 for (command, doc), out in zip(commands, outs)]
        probe = ("import json, sys\n"
                 "from lobeq.cli import main\n"
                 "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                 "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert codes == [0] * len(commands)
        assert (tmp_path / "signature" / "signature_0_update_count.csv").exists()
        assert not loaded

    def test_export_lists_name_what_exists(self):
        # every name a module's __all__ lists exists in it, and the package
        # re-exports only names some module's __all__ lists
        exported = set()
        for info in pkgutil.iter_modules(lobeq.__path__, "lobeq."):
            module = importlib.import_module(info.name)
            names = getattr(module, "__all__", [])
            assert [n for n in names if not hasattr(module, n)] == [], info.name
            exported.update(names)
        public = {name for name, value in vars(lobeq).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert sorted(public - exported) == []


class TestManifest:
    """``outputs`` in ``manifest.json`` names exactly the files a command
    put in place, in the order it renamed them there."""

    LOGGED = {"params": {**REF_PARAMS, "r": 0.15, "lambda_i": 0.15, "lambda_u": 0.85},
              "simulate": {"n_events": 300, "seed": 7, "n_levels": 6, "record_log": True,
                           "volume_scale": 1000}}
    GRID = {"x_min": 0.01, "x_max": 0.1, "n_points": 5}
    MULTI = {"sources": [{"r": 0.2, "f": 0.5, "jump": REF_PARAMS["jump"]}],
             "volume": REF_PARAMS["volume"]}
    CLUSTERS = [{"metric": "trade_to_trade", "thresholds": [1e7], "side": "aggressive"},
                {"metric": "update_count", "thresholds": [1], "side": "passive"}]

    @pytest.mark.parametrize("command, doc, names", [
        ("shape", {"params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 4}},
         ["shape.csv", "shape.json"]),
        ("shape", {"params": dict(REF_PARAMS, tick=0.0),
                   "shape": {"variant": "continuous", **GRID}}, ["shape.csv", "shape.json"]),
        ("shape", {"params": dict(REF_PARAMS, tick=0.0, theta=0.005, rho=0.5),
                   "shape": {"variant": "toxic", **GRID}}, ["shape.csv", "shape.json"]),
        ("shape", {"multi": MULTI, "shape": {"variant": "multi", **GRID}},
         ["shape.csv", "shape.json"]),
        ("spread", {"params": dict(REF_PARAMS, tick=0.0)}, ["spread.json"]),
        ("simulate", {"params": REF_PARAMS, "simulate": {"n_events": 300, "seed": 1}},
         ["pnl.csv", "summary.json"]),
        ("simulate", LOGGED, ["pnl.csv", "summary.json", "mbo.csv"]),
        ("signature", {"signature": {"horizons_s": [0.0, 1.0], "clusters": CLUSTERS}},
         ["signature_0_trade_to_trade.csv", "signature_1_update_count.csv"]),
        ("sweep", {"sweep": {"r_values": [0.5, 0.9], "f_values": [0.5], "probe_x": [0.01],
                             "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}},
         ["sweep.csv"]),
    ], ids=["shape-tick", "shape-continuous", "shape-toxic", "shape-multi", "spread",
            "simulate-fast", "simulate-logged", "signature", "sweep"])
    def test_outputs_are_the_files_written_in_order(self, tmp_path, monkeypatch, command, doc,
                                                    names):
        if command == "signature":
            (tmp_path / "log").mkdir()
            code, log_out = run_cli(tmp_path / "log", "simulate", self.LOGGED)
            assert code == 0
            doc = {"signature": {**doc["signature"], "input": str(log_out / "mbo.csv")}}
        written, placed, write, replace = [], [], cli._write, os.replace

        def recording_write(path, *args, **kwargs):
            written.append(path)
            write(path, *args, **kwargs)

        def recording_replace(src, dst):
            placed.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(cli, "_write", recording_write)
        monkeypatch.setattr(os, "replace", recording_replace)
        code, out = run_cli(tmp_path, command, doc)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == names
        assert placed == [*names, "manifest.json"]
        # each file is written to a temporary, never in place
        assert written and all(path.parent != out for path in written)
        assert sorted(p.name for p in out.iterdir()) == sorted(placed)

    @pytest.mark.parametrize("command", ["simulate", "signature"])
    def test_rerun_removes_what_the_earlier_manifest_listed(self, tmp_path, command):
        # a logged run then a fast one; two cluster specs then one
        if command == "simulate":
            first, second = self.LOGGED, {**self.LOGGED, "simulate": {
                **self.LOGGED["simulate"], "record_log": False}}
        else:
            (tmp_path / "log").mkdir()
            code, log_out = run_cli(tmp_path / "log", "simulate", self.LOGGED)
            assert code == 0
            first = {"signature": {"input": str(log_out / "mbo.csv"), "horizons_s": [0.0],
                                   "clusters": self.CLUSTERS}}
            second = {"signature": {**first["signature"], "clusters": self.CLUSTERS[:1]}}
        code, out = run_cli(tmp_path, command, first)
        assert code == 0
        (out / "notes.txt").write_text("not an output")
        code, out = run_cli(tmp_path, command, second)
        assert code == 0
        names = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*names, "manifest.json", "notes.txt"])

    def test_only_a_parsed_manifest_and_bare_names_remove_files(self, tmp_path):
        # the earlier manifest's text, and whether old.csv survives the rerun;
        # files outside out, in a subdirectory or not listed always do
        listing = ["../outside.csv", "sub/old.csv", "sub", "", ".."]
        out = tmp_path / "out"
        (tmp_path / "outside.csv").write_text("kept")
        for text, kept in ((json.dumps({"outputs": ["old.csv"]}), []),
                           ('{"outputs": ["old.csv"', ["old.csv"]),
                           (json.dumps({"outputs": "old.csv"}), ["old.csv"]),
                           (json.dumps({"outputs": listing}), ["old.csv"])):
            shutil.rmtree(out, ignore_errors=True)
            (out / "sub").mkdir(parents=True)
            for name in ("old.csv", "sub/old.csv", "notes.txt"):
                (out / name).write_text("kept")
            (out / "manifest.json").write_text(text)
            code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, tick=0.0)})
            assert code == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(
                ["manifest.json", "notes.txt", "spread.json", "sub", *kept])
            assert (out / "sub" / "old.csv").is_file() and (tmp_path / "outside.csv").is_file()


class TestStaging:
    """Outputs are written to temporaries and renamed into place only once
    all are complete: a failed command leaves the output directory as it
    was, and removes any directory it made."""

    LOGGED = TestManifest.LOGGED

    @pytest.mark.parametrize("command, doc", [
        ("shape", {"params": dict(REF_PARAMS, tick=0.0), "shape": {"variant": "tick",
                                                                   "n_levels": 4}}),
        # fails once the log's temporary exists
        ("simulate", {**LOGGED, "params": {**LOGGED["params"], "f": 0.0}}),
    ])
    def test_failed_command_makes_no_directory(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "a" / "b" / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"lobeq {command}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("error", [OSError, RuntimeError])
    def test_failed_log_keeps_the_earlier_outputs(self, tmp_path, monkeypatch, capsys, error):
        # an error main reports (exit 2) and one it does not catch
        code, out = run_cli(tmp_path, "simulate", self.LOGGED)
        assert code == 0
        (out / "notes.txt").write_text("not an output")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        blocks = simulator._LoggedRun.blocks

        def failing(lr):
            yield next(blocks(lr))
            raise error("disk full")

        monkeypatch.setattr(simulator._LoggedRun, "blocks", failing)
        doc = {**self.LOGGED, "simulate": {**self.LOGGED["simulate"], "seed": 8}}
        if error is OSError:
            assert run_cli(tmp_path, "simulate", doc)[0] == 2
            assert capsys.readouterr().err == "lobeq simulate: disk full\n"
        else:
            with pytest.raises(RuntimeError, match="^disk full$"):
                run_cli(tmp_path, "simulate", doc)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_success_leaves_only_the_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", self.LOGGED)
        assert code == 0
        names = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])


def value_paths(doc, at=()):
    """The path of every key and list element of ``doc``, nested ones included."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield at + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, at + (key,))


def with_value(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestMalformedValues:
    LOGGED = dict(REF_PARAMS, r=0.15, lambda_i=0.15, lambda_u=0.85, theta=0.0, rho=0.0)
    CONFIGS = [
        ("shape", {"params": dict(REF_PARAMS, tick=0.0, theta=0.002, rho=0.1),
                   "shape": {"variant": "continuous", "x_min": 0.005, "x_max": 0.1,
                             "n_points": 5}}),
        ("shape", {"multi": TestPlumbing.MULTI,
                   "shape": {"variant": "multi", "x_grid": [0.01, 0.02]}}),
        ("spread", {"params": LOGGED}),
        ("simulate", {"params": LOGGED,
                      "simulate": {"n_events": 200, "seed": 3, "n_levels": 4,
                                   "record_log": True, "volume_scale": 1000}}),
        ("signature", {"signature": {
            "input": "log.csv", "tick": 0.01, "reference": "micro", "horizons_s": [0.0, 1.0],
            "clusters": [{"metric": "trade_to_trade", "thresholds": [1e7],
                          "side": "aggressive"}]}}),
        ("sweep", {"sweep": {"r_values": [0.5, 0.9], "f_values": [0.9], "theta_values": [0.0],
                             "probe_x": [0.01], "jump": REF_PARAMS["jump"],
                             "volume": REF_PARAMS["volume"], "rho": 0.0, "tick": 0.01,
                             "offset_d": 0.0}}),
    ]
    VALUES = ["x", [1], {"a": 1}, True, None, 1e300, -1]

    @pytest.mark.parametrize("command, doc, message", [
        ("shape", {"params": dict(REF_PARAMS, jump={"type": "pareto", "shape": 1e300,
                                                    "scale": 0.005}),
                   "shape": {"variant": "tick", "n_levels": 4}},
         "params: jump law 'pareto': Pareto scale 0.005 to the power shape 1e+300 underflows "
         "a float\n"),
        ("shape", {"params": dict(REF_PARAMS, tick=0.0, theta=1e300),
                   "shape": {"variant": "toxic", "x_grid": [0.01, 1e301, math.inf]}}, ""),
        ("simulate", {"params": dict(LOGGED, theta=1e308),
                      "simulate": {"n_events": 50, "seed": 1, "record_log": True}},
         "theta = 1e+308 with rho = 0.0 is too large for n_events = 50: "),
        ("simulate", {"params": dict(LOGGED, theta=1e100),
                      "simulate": {"n_events": 50, "seed": 1, "record_log": True}},
         "record_log needs a finite price path within 2**52 ticks of zero; the price reached "),
        ("simulate", {"params": dict(REF_PARAMS, theta=1e200, rho=0.5),
                      "simulate": {"n_events": 2000, "seed": 1, "n_levels": 3}},
         "theta = 1e+200 with rho = 0.5 is too large for n_events = 2000: "),
        ("simulate", {"params": dict(LOGGED, theta=1.5e308, rho=0.5),
                      "simulate": {"n_events": 50, "seed": 1, "record_log": True}},
         "theta = 1.5e+308 with rho = 0.5 is too large for n_events = 50: "),
        # event times past int64 ns: a gap that does not cast, and a sum that wraps
        ("simulate", {"params": dict(LOGGED, r=None, lambda_i=1e-13, lambda_u=1e-12),
                      "simulate": {"n_events": 50, "seed": 3, "n_levels": 4,
                                   "record_log": True, "volume_scale": 1000}},
         "n_events = 50 at lambda_i + lambda_u = 1.1e-12 per second run past 2**63 ns"),
        ("simulate", {"params": dict(LOGGED, r=None, lambda_i=1.5e-9, lambda_u=8.5e-9),
                      "simulate": {"n_events": 200, "seed": 3, "n_levels": 4,
                                   "record_log": True, "volume_scale": 1000}},
         "n_events = 200 at lambda_i + lambda_u = 1e-08 per second run past 2**63 ns"),
        # a tick that puts the first level past int64 ticks names the tick and the cell
        ("spread", {"params": dict(REF_PARAMS, tick=1e-300)},
         "tick = 1e-300 is too small: the half-spread 0.010041494251232545 spans 2**62 ticks "
         "or more at cell (r, f, theta) = (0.9, 0.9, 0.0)\n"),
        ("spread", {"params": dict(REF_PARAMS, tick=5e-324)},       # the quotient would overflow
         "tick = 5e-324 is too small: the half-spread 0.010041494251232545 spans 2**62 ticks "
         "or more at cell (r, f, theta) = (0.9, 0.9, 0.0)\n"),
        ("sweep", {"sweep": {**TestPlumbing.SWEEP, "r_values": [0.5, 0.9, 0.7],
                             "f_values": [0.9, 0.5], "tick": 1e-300}},
         "tick = 1e-300 is too small: the half-spread 0.004821428571428571 spans 2**62 ticks "
         "or more at cell (r, f, theta) = (0.5, 0.9, 0.0)\n"),
        # the r below 1 closest to it leaves no room above 1 in the emax equation
        ("spread", {"params": dict(REF_PARAMS, r=math.nextafter(1.0, 0.0), f=1.0)},
         "emax equation needs a finite rhs > 1, got 1.0 at cell (r, f, theta) = "
         "(0.9999999999999999, 1.0, 0.0)\n"),
        ("sweep", {"sweep": {**TestPlumbing.SWEEP, "r_values": [0.5, math.nextafter(1.0, 0.0)],
                             "f_values": [1.0]}},
         "emax equation needs a finite rhs > 1, got 1.0 at cell (r, f, theta) = "
         "(0.9999999999999999, 1.0, 0.0)\n"),
        # 1/(2f) overflows: the root would lie below every positive float
        ("spread", {"params": dict(REF_PARAMS, f=5e-324)},
         "emax equation needs a finite rhs > 1, got inf at cell (r, f, theta) = "
         "(0.9, 5e-324, 0.0)\n"),
        # c * theta_bar overflows: the bracket is still the next float above theta_bar
        ("spread", {"params": dict(REF_PARAMS, tick=0.0, f=1e-10, theta=1e305)},
         "spread equation has no root above theta_bar = 1e+305 at cell (r, f, theta) = "
         "(0.9, 1e-10, 1e+305): emax just above it is 1.0, not above 1\n"),
    ], ids=["pareto-shape-1e300", "theta-1e300", "logged-theta-1e308", "logged-theta-1e100",
            "fast-theta-1e200-rho", "logged-theta-1.5e308-rho", "event-gap-past-int64",
            "event-time-past-int64", "spread-tick-1e-300", "spread-tick-subnormal",
            "sweep-tick-1e-300", "spread-r-below-1", "sweep-r-below-1", "spread-f-subnormal",
            "spread-toxic-c-theta-overflow"])
    def test_extreme_value_writes_only_its_error_line(self, tmp_path, capsys, command, doc,
                                                      message):
        # warnings are errors here: a leaked RuntimeWarning fails the run
        code, out = run_cli(tmp_path, command, doc)
        err = capsys.readouterr().err
        if message:
            assert code == 2
            assert err.startswith(f"lobeq {command}: {message}") and err.count("\n") == 1
            assert not out.exists()
        else:
            assert (code, err) == (0, "")
            rows = read_csv(out / "shape.csv")
            assert [r["informed"] for r in rows] == ["0", "inf", "inf"]

    def test_no_traceback_for_any_malformed_value(self, tmp_path, monkeypatch):
        # every key of a valid config of each command, and every element of
        # its lists, set in turn to each value.  A fresh interpreter runs
        # them: a path value read as a file descriptor (input: true) would
        # close this process's standard output.  Some values are well-formed
        # for their key ("x" as out, -1 as a horizon), so a run may succeed.
        # A numpy RuntimeWarning is raised, so a leaked one is a traceback.
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "simulate", self.CONFIGS[3][1])[0] == 0
        os.replace(tmp_path / "out" / "mbo.csv", tmp_path / "log.csv")
        cases = []
        for command, valid in self.CONFIGS:
            valid = {**valid, "seed": 1, "out": "o"}
            assert main([command, "--config", write_config(tmp_path, valid)]) == 0, command
            for path in value_paths(valid):
                for value in self.VALUES:
                    doc = with_value(valid, path, value)
                    cases.append((command, write_config(tmp_path, doc, f"{len(cases)}.json")))
        probe = ("import contextlib, io, json, sys, traceback\n"
                 "from lobeq.cli import main\n"
                 "results = []\n"
                 "for command, config in json.loads(sys.argv[1]):\n"
                 "    err = io.StringIO()\n"
                 "    with contextlib.redirect_stderr(err):\n"
                 "        try:\n"
                 "            code = main([command, '--config', config])\n"
                 "        except Exception:\n"
                 "            code = 1\n"
                 "            traceback.print_exc()\n"
                 "    results.append((code, err.getvalue()))\n"
                 "with open(sys.argv[2], 'w') as fh:\n"
                 "    json.dump(results, fh)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        results = tmp_path / "results.json"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", probe,
                               json.dumps(cases), str(results)],
                              cwd=tmp_path, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        bad = []
        for (command, config), (code, err) in zip(cases, json.loads(results.read_text())):
            ok = code == 0 or code == 2 and err.startswith(f"lobeq {command}: ")
            if not ok or "Traceback" in err:
                bad.append((command, Path(config).read_text(), code, err[-300:]))
        assert bad == []
