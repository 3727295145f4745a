"""Output checks for one CLI process.

Two kinds of check, both counted into the run's failures and never
aborting the benchmark:

* invariants, on every seed: the exported MBO log re-parses under the
  strict ``lobeq.mbo.parse`` and its replay executes exactly
  ``executed_units_total`` units; probe fill counts are consistent; the
  sweep covers its grid and every row has ``phi <= mu``;
* references, on the seed they were recorded at: ``mbo.csv`` must be
  byte-identical (compared by SHA-256), and in the other CSV and JSON
  outputs integers and blanks must match exactly while floats agree to
  ``REL_TOL`` relative (``ABS_TOL`` absolute near zero), because planned
  rewrites reorder float sums.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Job

REL_TOL = 1e-9
ABS_TOL = 1e-12

# CSV columns holding integers; every other nonblank numeric cell is a float
INT_COLUMNS = {"level", "n_fills", "cluster_id", "n_trades", "k_d"}
# files compared by digest only (too large to keep as a reference)
DIGEST_FILES = {"mbo.csv"}
DIGESTS = "digests.json"
# summary keys that name an implementation rather than a result
SKIP_KEYS = {"kernel_backend"}

PNL_HEADER = ["maker_type", "level", "n_fills", "mean_gain", "std_err"]
SIG_HEADER = ["horizon", "cluster_id", "st_value", "n_trades"]
SWEEP_HEADER = ["r", "f", "theta", "phi", "mu", "phi_theta", "k_d", "spread_tick"]


@dataclass
class Verdict:
    """Outcome of one process: ``failed`` of ``attempted`` operations.

    An operation is one CLI run, or one grid cell for ``sweep``.
    """

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    """Digests of the manifest and the outputs it lists: the files the CLI
    promises to reproduce byte for byte (side files such as timings are not)."""
    names = ["manifest.json"]
    try:
        names += json.loads((out_dir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return {name: sha256(out_dir / name) if (out_dir / name).is_file() else ""
            for name in names}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _same_cell(column: str, a: str, b: str) -> bool:
    if a == b:
        return True
    if column in INT_COLUMNS or a == "" or b == "":
        return False
    try:
        return _close(float(a), float(b))
    except ValueError:
        return False


def compare_csv(got: Path, ref: Path) -> list[str]:
    head_g, rows_g = _read_csv(got)
    head_r, rows_r = _read_csv(ref)
    if head_g != head_r:
        return [f"{got.name}: header {head_g} != reference {head_r}"]
    if len(rows_g) != len(rows_r):
        return [f"{got.name}: {len(rows_g)} rows != reference {len(rows_r)}"]
    for i, (rg, rr) in enumerate(zip(rows_g, rows_r), start=2):
        if len(rg) != len(rr):
            return [f"{got.name} row {i}: {len(rg)} fields != reference {len(rr)}"]
        for col, a, b in zip(head_r, rg, rr):
            if not _same_cell(col, a, b):
                return [f"{got.name} row {i} column {col}: {a!r} != reference {b!r}"]
    return []


def _same_json(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return not (isinstance(a, int) or isinstance(b, int)) and _close(a, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_json(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) - SKIP_KEYS
        return keys == set(b) - SKIP_KEYS and all(_same_json(a[k], b[k]) for k in keys)
    return False


def compare_json(got: Path, ref: Path) -> list[str]:
    a = json.loads(got.read_text())
    b = json.loads(ref.read_text())
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted((set(a) | set(b)) - SKIP_KEYS):
            if key not in a or key not in b or not _same_json(a[key], b[key]):
                return [f"{got.name}: key {key!r} is {a.get(key)!r}, "
                        f"reference {b.get(key)!r}"]
        return []
    return [] if _same_json(a, b) else [f"{got.name}: differs from the reference"]


def compare_reference(out_dir: Path, ref_dir: Path) -> list[str]:
    problems = []
    for ref in sorted(ref_dir.iterdir()):
        if ref.name == DIGESTS:
            for name, want in json.loads(ref.read_text()).items():
                got = out_dir / name
                if not got.is_file():
                    problems.append(f"{name}: missing")
                elif sha256(got) != want:
                    problems.append(f"{name}: not byte-identical to the reference")
            continue
        got = out_dir / ref.name
        if not got.is_file():
            problems.append(f"{ref.name}: missing")
        elif ref.suffix == ".json":
            problems += compare_json(got, ref)
        else:
            problems += compare_csv(got, ref)
    return problems


def record_reference(out_dir: Path, ref_dir: Path) -> None:
    """Store the outputs ``out_dir``'s manifest lists as the reference."""
    if ref_dir.exists():
        shutil.rmtree(ref_dir)
    ref_dir.mkdir(parents=True)
    digests = {}
    for name in json.loads((out_dir / "manifest.json").read_text())["outputs"]:
        if name in DIGEST_FILES:
            digests[name] = sha256(out_dir / name)
        else:
            shutil.copyfile(out_dir / name, ref_dir / name)
    if digests:
        (ref_dir / DIGESTS).write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def _check_manifest(out_dir: Path) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return [f"manifest lists {name}, which was not written"
            for name in manifest["outputs"] if not (out_dir / name).is_file()]


def _check_simulation(job: Job, out_dir: Path) -> tuple[list[str], dict]:
    sim = job.config["simulate"]
    n_levels = sim["n_levels"]
    problems = []
    header, rows = _read_csv(out_dir / "pnl.csv")
    if header != PNL_HEADER:
        problems.append(f"pnl.csv: header {header}")
    want = [[m, str(l)] for m in ("IMM", "NMM") for l in range(1, n_levels + 1)]
    if [row[:2] for row in rows] != want:
        problems.append("pnl.csv: rows are not IMM then NMM over every level")
    else:
        for imm, nmm in zip(rows[:n_levels], rows[n_levels:]):
            # a noise maker's probe fills whenever the informed one does
            if int(imm[2]) > int(nmm[2]):
                problems.append(f"pnl.csv level {imm[1]}: IMM fills {imm[2]} > NMM {nmm[2]}")
    summary = json.loads((out_dir / "summary.json").read_text())
    if summary["n_events"] != sim["n_events"] or summary["seed"] != sim["seed"]:
        problems.append("summary.json: n_events or seed differs from the config")
    if not 0 <= summary["n_it_wins"] <= summary["n_jumps"] <= summary["n_events"]:
        problems.append("summary.json: need 0 <= n_it_wins <= n_jumps <= n_events")
    return problems, summary


def _check_mbo_log(job: Job, out_dir: Path, summary: dict) -> list[str]:
    from lobeq.mbo import MboParseError, MboReplayError, parse, reconstruct

    try:
        events = parse(out_dir / "mbo.csv", tick=job.config["params"]["tick"])
        replay = reconstruct(events)
    except (MboParseError, MboReplayError) as exc:
        return [f"mbo.csv: {exc}"]
    problems = []
    if len(events) != summary["n_mbo_rows"]:
        problems.append(f"mbo.csv: {len(events)} rows, summary says {summary['n_mbo_rows']}")
    executed = sum(f.qty for f in replay.fills if not f.aggressor)
    if executed != summary["executed_units_total"]:
        problems.append(f"replay executes {executed} units, summary says "
                        f"{summary['executed_units_total']}")
    return problems


def _check_signature(job: Job, out_dir: Path) -> list[str]:
    sig = job.config["signature"]
    horizons = [float(h) for h in sig["horizons_s"]]
    problems = []
    for i, spec in enumerate(sig["clusters"]):
        name = f"signature_{i}_{spec['metric']}.csv"
        header, rows = _read_csv(out_dir / name)
        if header != SIG_HEADER:
            problems.append(f"{name}: header {header}")
            continue
        by_cluster: dict[int, list[list[str]]] = {}
        for row in rows:
            by_cluster.setdefault(int(row[1]), []).append(row)
        for cid, group in by_cluster.items():
            if not 0 <= cid <= len(spec["thresholds"]):
                problems.append(f"{name}: cluster id {cid} out of range")
            if [float(r[0]) for r in group] != horizons:
                problems.append(f"{name} cluster {cid}: horizons differ from the config")
            if len({r[3] for r in group}) != 1 or int(group[0][3]) < 1:
                problems.append(f"{name} cluster {cid}: trade count varies or is zero")
            if not all(math.isfinite(float(r[2])) for r in group):
                problems.append(f"{name} cluster {cid}: non-finite signature")
    return problems


def _check_sweep(job: Job, out_dir: Path) -> tuple[list[str], int]:
    """(problems, number of cells without a solved row)."""
    sw = job.config["sweep"]
    header, rows = _read_csv(out_dir / "sweep.csv")
    n_columns = len(SWEEP_HEADER) + len(sw["probe_x"])
    if header[:len(SWEEP_HEADER)] != SWEEP_HEADER or len(header) != n_columns:
        return [f"sweep.csv: header {header}"], 0
    grid = {(r, f, t) for r in sw["r_values"] for f in sw["f_values"]
            for t in sw["theta_values"]}
    seen = {(float(row[0]), float(row[1]), float(row[2])) for row in rows}
    problems = []
    if len(rows) != len(grid) or seen != grid:
        problems.append(f"sweep.csv: {len(rows)} rows do not cover the {len(grid)} cells")
    unsolved = 0
    for i, row in enumerate(rows, start=2):
        phi, mu, phi_theta = row[3], row[4], row[5]
        if phi == "" or mu == "":
            unsolved += 1
            continue
        if not float(phi) <= float(mu):
            problems.append(f"sweep.csv row {i}: phi {phi} > mu {mu}")
        if float(row[2]) > 0.0 and not (phi_theta and float(phi_theta) >= float(phi)):
            problems.append(f"sweep.csv row {i}: phi_theta {phi_theta!r} below phi {phi}")
    return problems, unsolved


def check_process(job: Job, out_dir: Path, returncode: int, stderr: str = "",
                  ref_dir: Path | None = None) -> Verdict:
    """Check one CLI process's outputs; compare to ``ref_dir`` when given.

    A nonzero exit or any failed check fails every operation of the
    process; otherwise only the sweep cells without a solved row fail.
    """
    attempted = job.units if job.workload == "sweep" else 1
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return Verdict(attempted, attempted, [f"exit code {returncode}: {tail[0]}"])
    unsolved = 0
    try:
        problems = _check_manifest(out_dir)
        if job.workload in ("mc_fast", "mbo_log"):
            more, summary = _check_simulation(job, out_dir)
            problems += more
            if job.workload == "mbo_log":
                problems += _check_mbo_log(job, out_dir, summary)
        elif job.workload == "signature":
            problems += _check_signature(job, out_dir)
        else:
            more, unsolved = _check_sweep(job, out_dir)
            problems += more
        if ref_dir is not None:
            problems += compare_reference(out_dir, ref_dir)
    except (OSError, ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
        # malformed output, or a public result whose shape the check no longer matches
        problems = [f"check could not read the output: {type(exc).__name__}: {exc}"]
    if problems:
        return Verdict(attempted, attempted, problems)
    if unsolved:
        return Verdict(attempted, unsolved, [f"{unsolved} sweep cells have no solved row"])
    return Verdict(attempted)
