"""Time and peak memory of fast ``lobeq simulate`` at large event counts.

Each argument is ``N_EVENTS:MAX_MB``.  For each, ``lobeq simulate`` runs on
the reference model of acceptance test 3 (8 levels, seed 1) in a fresh
interpreter that imports the ``lobeq`` it finds, as the console script
does, and reports its peak resident memory (``VmHWM`` of
``/proc/self/status``) when ``main`` returns.  The ``ru_maxrss`` of
``os.wait4`` would not do: Linux carries the parent's resident size into
the child's across fork and exec.

Prints one Markdown table row per run (wall time, which has no bound, and
the peak) and exits 1 when a run fails or peaks above its ``MAX_MB``::

    python3 tools/simulate_peak.py 10000000:150 100000000:200
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PARAMS = {
    "r": 0.9, "f": 0.9,
    "jump": {"type": "pareto", "shape": 3.0, "scale": 0.005},
    "volume": {"type": "normal", "sigma": 10.0},
    "tick": 0.01, "offset_d": 0.0,
}

STUB = """\
import sys
import lobeq.cli
try:
    code = lobeq.cli.main(sys.argv[2:])
finally:
    with open("/proc/self/status") as fh:
        hwm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(sys.argv[1], "w") as fh:
        fh.write(str(hwm_kib))
sys.exit(code)
"""


def measure(n_events: int, work: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak MB of one ``lobeq simulate``."""
    config = work / f"simulate_{n_events}.json"
    config.write_text(json.dumps({"params": PARAMS, "simulate": {
        "n_events": n_events, "seed": 1, "n_levels": 8}}))
    peak = work / f"peak_{n_events}"
    t0 = time.monotonic()
    code = subprocess.run([sys.executable, "-c", STUB, str(peak), "simulate",
                           "--config", str(config), "--out", str(work / f"out_{n_events}")],
                          stdin=subprocess.DEVNULL).returncode
    wall = time.monotonic() - t0
    return code, wall, int(peak.read_text()) / 1024 if peak.is_file() else float("nan")


def main(argv: list[str]) -> int:
    runs = [(int(float(n)), float(mb)) for n, mb in (arg.split(":") for arg in argv)]
    print("| n_events | wall s | peak MB | bound MB |")
    print("|---|---|---|---|")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for n_events, max_mb in runs:
            code, wall, peak_mb = measure(n_events, Path(tmp))
            over = code != 0 or not peak_mb <= max_mb
            failed |= over
            print(f"| {n_events:,} | {wall:.2f} | {peak_mb:.1f} | {max_mb:g}"
                  f"{' FAILED' if over else ''} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
