"""Self-test of the benchmark: ``python3 -m pytest -q perfbench``.

Every workload runs at a tiny size and passes its output checks, a
corrupted output is reported as a failed run, the peak memory reported
is the CLI process's own, the committed references hold at full size, and
the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import spans
from checks import check_process, record_reference
from run import BENCH, END_TO_END, PER_LAYER, ROOT, SRC, prepare, run_benchmark, spawn_cli
from workloads import REFERENCE_SEED, WORKLOADS

sys.path.insert(0, str(SRC))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    result = run_benchmark(workload, seed=5, seconds=0, trace=False, size="tiny",
                           work=tmp_path / workload)
    assert result.problems == []
    assert result.correct and result.attempted >= 1
    assert set(result.metrics) == {name for name, _u, _b in END_TO_END}
    assert all(v > 0 for v in result.metrics.values())


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    result = run_benchmark("mbo_log", seed=5, seconds=0, trace=True, size="tiny",
                           work=tmp_path / "trace")
    assert result.correct
    assert set(result.metrics) == {name for name, _u, _b in PER_LAYER}
    assert result.metrics["simulator.mbo_rows"] > 0
    assert result.metrics["mbo.write_csv_s"] > 0
    assert (tmp_path / "trace" / "spans.jsonl").stat().st_size > 0


def test_flipped_byte_in_mbo_csv_fails_the_run(tmp_path):
    p = prepare("mbo_log", seed=5, work=tmp_path / "w", size="tiny")
    out = p.work / "out"
    sample = spawn_cli(p.job, p.config, out)
    ref = tmp_path / "ref"
    record_reference(out, ref)
    assert check_process(p.job, out, sample.returncode, ref_dir=ref).failed == 0

    data = bytearray((out / "mbo.csv").read_bytes())
    data[len(data) // 2] ^= 0x01
    (out / "mbo.csv").write_bytes(bytes(data))
    verdict = check_process(p.job, out, sample.returncode, ref_dir=ref)
    assert verdict.failed == verdict.attempted == 1
    assert any("mbo.csv" in problem for problem in verdict.problems)


def test_peak_rss_is_the_childs_own(tmp_path):
    p = prepare("mbo_log", seed=5, work=tmp_path / "w", size="tiny")
    ballast = bytearray(200 * 2**20)      # resident in this, the parent, process
    sample = spawn_cli(p.job, p.config, p.work / "out")
    assert sample.returncode == 0
    assert 10 < sample.rss_mb < 150, len(ballast)


def test_missing_target_is_reported_not_fatal(monkeypatch):
    import lobeq.cli  # noqa: F401  (the tracer patches loaded modules)

    monkeypatch.setattr(spans, "SPANNED",
                        spans.SPANNED + [("gone.fn", "lobeq.simulator", "no_such_fn")])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["lobeq.simulator.no_such_fn"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_seed_matches_committed_reference(workload, tmp_path):
    result = run_benchmark(workload, seed=REFERENCE_SEED, seconds=0, trace=False,
                           work=tmp_path / workload)
    assert result.problems == [] and result.correct


def test_benchmark_json_lists_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_fast",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
