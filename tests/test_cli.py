"""CLI end-to-end: configs in, reproducible files out, honest exit codes."""

import csv
import itertools
import json
import math

import numpy as np
import pytest

from lobeq.cli import main
from lobeq.equilibrium import (
    ModelParams,
    ZeroSpreadRegime,
    book_curves,
    spread_tick,
    spread_toxic,
)
from lobeq.laws import Exponential, NormalVolume

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
         "multi: source 1: jump law 'exponential' missing fields"),
        ({"r": None, "f": 0.5, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1: r must be a number, got None"),
        ({"r": "0.3", "f": 0.5, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1: r must be a number, got '0.3'"),
        ({"r": 0.1, "f": True, "jump": {"type": "exponential", "rate": 50.0}},
         "multi: source 1: f must be a number, got True"),
        ({"r": 0.1, "f": 0.5, "jump": {"type": "pareto", "shape": "3.0", "scale": 0.005}},
         "multi: source 1: jump law 'pareto' field 'shape' must be a number, got '3.0'"),
        ({"r": 0.1, "f": 0.5, "jump": {"type": "pareto", "shape": 3.0, "scale": True}},
         "multi: source 1: jump law 'pareto' field 'scale' must be a number, got True"),
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

    def test_integral_float_accepted_for_an_integer(self, tmp_path):
        code, out = run_cli(tmp_path, "shape", {
            "params": REF_PARAMS, "shape": {"variant": "tick", "n_levels": 4.0}})
        assert code == 0
        assert len(read_csv(out / "shape.csv")) == 4


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

    def test_invalid_config_is_nonzero(self, tmp_path):
        code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, f=2.0)})
        assert code == 2

    @pytest.mark.parametrize("key", ["f", "theta", "r", "lambda_i"])
    def test_non_numeric_param_names_its_key(self, tmp_path, capsys, key):
        value = None if key in ("f", "theta") else "fast"
        code, _ = run_cli(tmp_path, "spread", {"params": dict(REF_PARAMS, **{key: value})})
        assert code == 2
        assert f"params: {key} must be a number, got {value!r}" in capsys.readouterr().err

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
        ("n_events", math.inf, "an integer"), ("p0", [100.0], "a number"),
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
        ({"tick": 0.0}, "record_log requires a positive tick"),
        ({"f": 0.0}, "the closed-form book is unbounded within the simulated levels"),
    ])
    def test_logged_run_errors_write_nothing(self, tmp_path, capsys, change, message):
        doc = {"params": {**self.LOGGED, **change},
               "simulate": {"n_events": 50, "seed": 7, "n_levels": 6,
                            "record_log": True, "volume_scale": 1000}}
        code, out = run_cli(tmp_path, "simulate", doc)
        assert code == 2
        assert f"lobeq simulate: {message}" in capsys.readouterr().err
        assert not (out / "mbo.csv").exists() and not (out / "pnl.csv").exists()

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

    def test_unreadable_log_names_its_row(self, tmp_path, capsys):
        log = tmp_path / "big.csv"
        log.write_text("ts_ns,order_id,action,side,price,qty,aggressor_flag,participant_label\n"
                       f"10,1,add,ask,100.01,5,,{'x' * 140_000}\n11,2,add,mid,100.01,5,,\n")
        doc = {"signature": {"input": str(log), "horizons_s": [0.0],
                             "clusters": [self.GOOD_CLUSTER]}}
        cfg = write_config(tmp_path, doc, name="sig.json")
        assert main(["signature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "row 2: field larger than field limit" in capsys.readouterr().err

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
                sol = spread_toxic(p) if theta > 0.0 else spread_tick(p)
                want += [sol.phi, sol.mu, sol.phi_theta, sol.k_d, sol.spread_tick]
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
    ])
    def test_non_numeric_value_list_names_its_key(self, tmp_path, capsys, key, values, message):
        doc = {"sweep": {"r_values": [0.5], "f_values": [0.5], key: values,
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_out_of_range_r_rejected(self, tmp_path, capsys):
        doc = {"sweep": {"r_values": [0.5, 1.5], "f_values": [0.5],
                         "jump": REF_PARAMS["jump"], "volume": REF_PARAMS["volume"]}}
        code, _out = run_cli(tmp_path, "sweep", doc)
        assert code == 2
        assert "r = 1.5 must lie in [0, 1)" in capsys.readouterr().err


class TestPlumbing:
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
