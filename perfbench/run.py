"""End-to-end benchmark of the ``lobeq`` CLI, with a traced per-layer run.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload mc_fast --seed 3 --seconds 25 --trace 0

``--trace 0`` is a closed loop with one client: it starts a fresh
``lobeq <command>`` process, waits for it to exit, checks its outputs and
starts the next one, until ``--seconds`` have passed.  It reports the
end-to-end metrics as medians over those processes, each time scaled to a
reference host speed (see ``probe_host``).  ``--trace 1`` reports
the per-layer metrics instead: import times from ``python -X importtime``,
then the same command run in this process, alternately untraced and with
spans around the public functions of each layer (see ``spans.py``).  The
tracing overhead is the traced minus the untraced in-process time.

Workloads and their reasons are in ``workloads.py``, the output checks in
``checks.py``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric by name with its unit and sample count, and the
environment the numbers were taken in.  Spans and results are written to
``perfbench/_work/``.

``--record-reference`` runs one process at the reference seed and stores
its outputs under ``perfbench/reference/<workload>/``; do this only on a
commit whose outputs are known good.

Self-test (tiny sizes, plus a corrupted output that must be caught)::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from checks import Verdict, check_process, output_digests, record_reference
from spans import Tracer
from workloads import REFERENCE_SEED, WORKLOADS, Job, make_job, mbo_log_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("units_per_s", "units/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
]
PER_LAYER = [
    ("import.numpy_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.lobeq_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("laws.emax_ratio.calls", "count", "lower"),
    ("solvers.bisect.calls", "count", "lower"),
    ("solvers.bisect.iters", "count", "lower"),
    ("solvers.bisect_s", "s", "lower"),
    ("equilibrium.spread_s", "s", "lower"),
    ("equilibrium.book_curves_s", "s", "lower"),
    ("equilibrium.book_curves.calls_per_event", "calls/event", "lower"),
    ("equilibrium.shape_tick_s", "s", "lower"),
    ("kernels.accumulate_pnl_s", "s", "lower"),
    ("kernels.events_per_s", "events/s", "higher"),
    ("simulator.run_s", "s", "lower"),
    ("simulator.run.self_s", "s", "lower"),
    ("simulator.draw_events_s", "s", "lower"),
    ("simulator.mbo_rows", "count", "lower"),
    ("mbo.write_csv_s", "s", "lower"),
    ("mbo.csv_bytes", "bytes", "lower"),
    ("mbo.parse_s", "s", "lower"),
    ("mbo.reconstruct_s", "s", "lower"),
    ("signature.build_trade_records_s", "s", "lower"),
    ("signature.trade_records", "count", "lower"),
    ("signature.classify_s", "s", "lower"),
    ("signature.signature_curves_s", "s", "lower"),
    ("signature.reference.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
SPREADS = ("equilibrium.spread_continuous", "equilibrium.spread_tick",
           "equilibrium.spread_toxic")
IMPORT_RUNS = 3
# The host this runs on is shared, and its speed wanders by a quarter or more
# within seconds to minutes: the same CLI process took 1.1-2.0 s within a few
# minutes, and its set-up time moved with it.  So before and after each CLI
# process the benchmark times two fixed probes (``probe_host``): a fresh
# interpreter that imports numpy, which does what a CLI process does in
# set-up, and a piece of interpreter and array work done in this process.  A
# CLI process's set-up time is scaled by STARTUP_PROBE_NOMINAL_S over the mean
# of the start-up probes around it, and its time after set-up by
# WORK_PROBE_NOMINAL_S over the mean of the work probes: the times it would
# have taken on a host where the probes take their nominal times (about
# their times on an idle 2-vCPU Xeon).  The unscaled medians are printed
# beside the scaled ones.  On that host the spread between 25 s runs of
# mbo_log's wall_s and units_per_s (interquartile range over median) was
# 26-33% unscaled and 2-8% scaled.  A work probe alone left the scaled set-up
# time moving by a quarter from one quarter hour to the next; with the
# start-up probe the medians of two sets of runs 20 minutes apart agreed
# within 15%.
STARTUP_PROBE = "import numpy"
STARTUP_PROBE_NOMINAL_S = 0.25
WORK_PROBE_NOMINAL_S = 0.2
# a CLI process that runs this long is killed and counted as failed; normal
# ones take under 5 s, and a whole run must end within 180 s
PROCESS_TIMEOUT_S = 100.0

# The child reports when ``lobeq.cli`` is imported and ready to dispatch on
# CLOCK_MONOTONIC, which the parent's time.monotonic() shares; it then runs
# exactly what the ``lobeq`` console script runs.  On exit it also reports
# its peak resident memory (VmHWM, KiB).  The ru_maxrss that os.wait4 gives
# cannot serve: Linux carries the resident size of the benchmark process,
# from which the child was forked, into the child's ru_maxrss across exec.
STUB = """\
import sys, time
import lobeq.cli
ready = time.monotonic()
try:
    code = lobeq.cli.main(sys.argv[2:])
finally:
    hwm_kib = 0
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    hwm_kib = int(line.split()[1])
    except OSError:
        pass
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{ready!r} {hwm_kib}")
sys.exit(code)
"""


def work_probe() -> float:
    """Seconds this process takes for a fixed piece of work.

    Interpreter work like the CLI's bookkeeping loops (integer arithmetic,
    string formatting, dict inserts), then array work like its vectorized
    draws (random numbers, arithmetic and a sort over 8 MB).  The benchmark
    does nothing else while it runs, and nothing of ``lobeq`` runs inside it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    acc += len({str(i): i for i in range(160_000)})
    x = numpy.random.default_rng(0).random(1_000_000)
    for _ in range(6):
        numpy.sort(x * 1.5 + 2.0)
    return time.perf_counter() - t0


def probe_host() -> tuple[float, float]:
    """Seconds for the start-up probe and for the work probe, in that order."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_PROBE], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   env=child_env(), cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0, work_probe()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LOB_LOG_LEVEL", None)
    return env


@dataclass
class Sample:
    """One CLI process as seen from the parent."""

    returncode: int
    wall: float
    setup: float
    rss_mb: float
    stderr: str
    # nominal over measured probe times around this process (see probe_host)
    setup_speed: float = 1.0
    work_speed: float = 1.0

    @property
    def scaled_setup(self) -> float:
        return self.setup * self.setup_speed

    @property
    def scaled_work(self) -> float:
        """Time after set-up at the reference host speed."""
        return max(self.wall - self.setup, 1e-9) * self.work_speed


def spawn_cli(job: Job, config: Path, out: Path) -> Sample:
    """Run ``lobeq <command>`` in a fresh interpreter and wait for it."""
    ready = out.with_name(out.name + ".ready")
    err_path = out.with_name(out.name + ".err")
    argv = [sys.executable, "-c", STUB, str(ready),
            job.command, "--config", str(config), "--out", str(out)]
    with open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
    # ru_maxrss is in KiB on Linux; an upper bound when the child's own
    # report is missing
    hwm_kib = usage.ru_maxrss
    try:
        ready_at, reported_kib = ready.read_text().split()
        setup = float(ready_at) - t0
        hwm_kib = int(reported_kib) or hwm_kib
        ready.unlink()
    except (OSError, ValueError):         # died before lobeq.cli was ready
        setup = t1 - t0
    stderr = err_path.read_text()
    err_path.unlink()
    return Sample(proc.returncode, t1 - t0, setup, hwm_kib / 1024.0, stderr)


class RunChecker:
    """Checks each process of a run.

    Every process of a run gets the same config, and the CLI promises
    byte-identical outputs for one config, so the first successful
    process is checked in full and the others are compared by digest.
    """

    def __init__(self, job: Job, ref_dir: Path | None):
        self.job = job
        self.ref_dir = ref_dir
        self.first: tuple[dict, Verdict] | None = None
        self.problems: list[str] = []

    def check(self, out: Path, returncode: int, stderr: str = "") -> Verdict:
        if returncode != 0 or self.first is None:
            verdict = check_process(self.job, out, returncode, stderr, self.ref_dir)
            if returncode == 0:
                self.first = (output_digests(out), verdict)
        elif output_digests(out) == self.first[0]:
            v = self.first[1]
            verdict = Verdict(v.attempted, v.failed, list(v.problems))
        else:
            verdict = check_process(self.job, out, returncode, stderr, self.ref_dir)
            verdict.problems.append("outputs differ from the first process of this run")
            verdict.failed = verdict.attempted
        self.problems += verdict.problems
        return verdict


@dataclass
class Prepared:
    job: Job
    config: Path
    work: Path
    units: int
    ref_dir: Path | None


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def prepare(workload: str, seed: int, work: Path, size: str = "full") -> Prepared:
    """Write the config (and for ``signature`` its input log) under ``work``.

    Nothing here is timed.  One untimed process also compiles the
    bytecode and warms the file cache, which users pay only once.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    log_path = None
    if workload == "signature":
        log_job = Job("mbo_log", "simulate", mbo_log_config(seed, size), None, "")
        cfg = work / "log_config.json"
        cfg.write_text(json.dumps(log_job.config, indent=2))
        sample = spawn_cli(log_job, cfg, work / "log")
        log = work / "log" / "mbo.csv"
        if sample.returncode != 0 or not log.is_file():
            raise RuntimeError(f"could not make the signature input: {sample.stderr.strip()}")
        log_path = str(log)
    job = make_job(workload, seed, size, log_path)
    config = work / "config.json"
    config.write_text(json.dumps(job.config, indent=2))
    if log_path is None:
        subprocess.run([sys.executable, "-c", "import lobeq.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=120)
        units = job.units
    else:
        with open(log_path, "rb") as fh:
            units = sum(1 for _ in fh) - 1
    ref_dir = REFERENCE / workload
    use_ref = size == "full" and seed == REFERENCE_SEED and ref_dir.is_dir()
    return Prepared(job, config, work, units, ref_dir if use_ref else None)


def _deadline_loop(seconds: float):
    """Yield 0, 1, 2, ... until ``seconds`` have passed (at least once)."""
    start = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - start < seconds:
        yield i
        i += 1


def measure_end_to_end(p: Prepared, seconds: float) -> Result:
    checker = RunChecker(p.job, p.ref_dir)
    samples, attempted, failed = [], 0, 0
    good = []
    probe = probe_host()
    for i in _deadline_loop(seconds):
        out = p.work / f"out{i}"
        s = spawn_cli(p.job, p.config, out)
        before, probe = probe, probe_host()
        s.setup_speed = STARTUP_PROBE_NOMINAL_S / ((before[0] + probe[0]) / 2)
        s.work_speed = WORK_PROBE_NOMINAL_S / ((before[1] + probe[1]) / 2)
        verdict = checker.check(out, s.returncode, s.stderr)
        shutil.rmtree(out, ignore_errors=True)
        samples.append(s)
        attempted += verdict.attempted
        failed += verdict.failed
        if verdict.failed == 0:
            good.append(s)
    use = good or samples
    med = statistics.median
    metrics = {
        "wall_s": med(s.scaled_setup + s.scaled_work for s in use),
        "setup_s": med(s.scaled_setup for s in use),
        "units_per_s": med(p.units / s.scaled_work for s in use),
        "peak_rss_mb": med(s.rss_mb for s in use),
        "ok_frac": (attempted - failed) / attempted,
    }
    walls = [s.wall for s in use]
    setup_speeds = [s.setup_speed for s in use]
    work_speeds = [s.work_speed for s in use]
    notes = [f"{len(samples)} CLI processes, closed loop with one client; "
             f"medians over {len(use)} that passed their checks; "
             f"{p.units} {p.job.unit_name} per process",
             f"host speed, nominal over measured probe time: start-up "
             f"({STARTUP_PROBE_NOMINAL_S} s nominal) median {med(setup_speeds):.3f} "
             f"min {min(setup_speeds):.3f} max {max(setup_speeds):.3f}; work "
             f"({WORK_PROBE_NOMINAL_S} s nominal) median {med(work_speeds):.3f} "
             f"min {min(work_speeds):.3f} max {max(work_speeds):.3f}",
             f"unscaled: wall_s median {med(walls):.4f} min {min(walls):.4f} "
             f"max {max(walls):.4f}; setup_s median {med(s.setup for s in use):.4f}; "
             f"units_per_s median {med(p.units / max(s.wall - s.setup, 1e-9) for s in use):.6g}"]
    return Result(metrics, attempted, failed, checker.problems, notes)


def import_times() -> tuple[dict, int]:
    """Self time of each package's own modules in ``import lobeq.cli``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lobeq.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    totals = {"numpy": 0, "scipy": 0, "lobeq": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us)
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}, proc.returncode


def layer_metrics(tracer: Tracer, run_id: int, n_events: int) -> dict:
    rs = tracer.summarize(run_id)
    kernel_s = rs.busy("kernels.accumulate_pnl")
    return {
        "cli.main_s": rs.busy("cli.main"),
        "cli.self_s": rs.self_time("cli.main"),
        "laws.emax_ratio.calls": rs.count("laws.emax_ratio.calls"),
        "solvers.bisect.calls": rs.calls("solvers.bisect"),
        "solvers.bisect.iters": rs.count("solvers.bisect.iters"),
        "solvers.bisect_s": rs.busy("solvers.bisect"),
        "equilibrium.spread_s": rs.busy(*SPREADS),
        "equilibrium.book_curves_s": rs.busy("equilibrium.book_curves"),
        "equilibrium.book_curves.calls_per_event":
            rs.calls("equilibrium.book_curves") / n_events if n_events else 0.0,
        "equilibrium.shape_tick_s": rs.busy("equilibrium.shape_tick"),
        "kernels.accumulate_pnl_s": kernel_s,
        "kernels.events_per_s": rs.count("kernels.events") / kernel_s if kernel_s else 0.0,
        "simulator.run_s": rs.busy("simulator.run"),
        "simulator.run.self_s": rs.self_time("simulator.run"),
        "simulator.draw_events_s": rs.busy("simulator.draw_events"),
        "simulator.mbo_rows": rs.count("simulator.mbo_rows"),
        "mbo.write_csv_s": rs.busy("mbo.write_csv"),
        "mbo.csv_bytes": rs.count("mbo.csv_bytes"),
        "mbo.parse_s": rs.busy("mbo.parse"),
        "mbo.reconstruct_s": rs.busy("mbo.reconstruct"),
        "signature.build_trade_records_s": rs.busy("signature.build_trade_records"),
        "signature.trade_records": rs.count("signature.trade_records"),
        "signature.classify_s": rs.busy("signature.classify"),
        "signature.signature_curves_s": rs.busy("signature.signature_curves"),
        "signature.reference.calls": rs.count("signature.reference.calls"),
    }


def measure_layers(p: Prepared, seconds: float) -> Result:
    attempted = failed = 0
    problems = []
    imports = []
    for _ in range(IMPORT_RUNS):
        times, rc = import_times()
        attempted += 1
        if rc != 0:
            failed += 1
            problems.append(f"python -X importtime -c 'import lobeq.cli' exited {rc}")
        imports.append(times)

    import lobeq.cli

    checker = RunChecker(p.job, p.ref_dir)
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    run_ids = []

    def run_in_process(tag: str, traced: bool) -> float:
        nonlocal attempted, failed
        out = p.work / f"inproc-{tag}"
        argv = [p.job.command, "--config", str(p.config), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.install()
                run_id, rc = tracer.run("cli.main", lobeq.cli.main, argv)
                run_ids.append(run_id)
            else:
                rc = lobeq.cli.main(argv)
        except Exception as exc:     # a crash is a failed run, not the end of the benchmark
            rc, msg = 1, f"{type(exc).__name__}: {exc}"
        else:
            msg = ""
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - t0
        verdict = checker.check(out, rc, msg)
        shutil.rmtree(out, ignore_errors=True)
        attempted += verdict.attempted
        failed += verdict.failed
        return wall

    # the first in-process run pays for lazy imports and heap growth
    run_in_process("warmup", False)
    for i in _deadline_loop(seconds):
        for traced in (False, True):
            walls[traced].append(run_in_process(f"{i}{'t' if traced else 'u'}", traced))

    n_events = p.job.config.get("simulate", {}).get("n_events", 0)
    per_run = [layer_metrics(tracer, r, n_events) for r in run_ids]
    metrics = {name: statistics.median(d[name] for d in imports) for name in imports[0]}
    for name in per_run[0]:
        metrics[name] = statistics.median(d[name] for d in per_run)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    tracer.dump(p.work / "spans.jsonl")
    notes = [f"{len(run_ids)} traced and {len(walls[False])} untraced in-process runs, "
             f"{IMPORT_RUNS} import-time runs; medians"]
    if tracer.missing:
        notes.append(f"missing spans (reported as 0): {tracer.missing}")
    return Result(metrics, attempted, failed, problems + checker.problems, notes)


def environment() -> dict:
    load = os.getloadavg()
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy
    from lobeq import kernels

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(kernels, "BACKEND", "missing"),
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "loadavg_start": [round(x, 2) for x in load],
    }


def work_dir(workload: str, seed: int, trace: bool) -> Path:
    return WORK / f"{workload}-seed{seed}-trace{int(trace)}"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", work: Path | None = None) -> Result:
    work = work or work_dir(workload, seed, trace)
    p = prepare(workload, seed, work, size)
    result = measure_layers(p, seconds) if trace else measure_end_to_end(p, seconds)
    shutil.rmtree(work / "log", ignore_errors=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store one run's outputs as the reference (seed {REFERENCE_SEED} only)")
    args = ap.parse_args(argv)

    if not (SRC / "lobeq" / "cli.py").is_file():
        print(f"perfbench: no lobeq sources at {SRC / 'lobeq'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    if args.record_reference:
        if args.seed != REFERENCE_SEED:
            ap.error(f"references are recorded at seed {REFERENCE_SEED}")
        p = prepare(args.workload, args.seed, WORK / f"{args.workload}-reference")
        out = p.work / "out"
        s = spawn_cli(p.job, p.config, out)
        verdict = check_process(p.job, out, s.returncode, s.stderr)
        if verdict.failed:
            print(f"perfbench: not recording, outputs fail their checks: {verdict.problems}",
                  file=sys.stderr)
            return 1
        record_reference(out, REFERENCE / args.workload)
        print(f"recorded {REFERENCE / args.workload}")
        return 0

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    table = PER_LAYER if args.trace else END_TO_END
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result.notes:
        print(f"# {note}")
    for problem in result.problems[:20]:
        print(f"# problem: {problem}")
    for name, unit, better in table:
        print(f"{name} = {result.metrics[name]:.6g} {unit} ({better} is better)")
    doc = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit, _better in table},
    }
    saved = {"env": env, "notes": result.notes, "problems": result.problems, **doc}
    result_path = work_dir(args.workload, args.seed, bool(args.trace)) / "result.json"
    result_path.write_text(json.dumps(saved, indent=2) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
