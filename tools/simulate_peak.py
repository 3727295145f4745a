"""Time and peak memory of ``lobeq`` commands, each in a fresh process.

Each run is ``lobeq <command> --config <config>`` in a fresh interpreter
that imports the ``lobeq`` it finds, as the console script does, and
reports its peak resident memory (``VmHWM`` of ``/proc/self/status``) when
``main`` returns.  The ``ru_maxrss`` of ``os.wait4`` would not do: Linux
carries the parent's resident size into the child's across fork and exec.

A positional argument ``N_EVENTS:MAX_MB`` runs fast ``lobeq simulate`` on
the reference model of acceptance test 3 (8 levels, seed 1) at that many
events; ``--command`` with ``--config`` and ``--max-mb`` runs any command
on a config of its own.  Outputs go to a temporary directory.

Prints one Markdown table row per run (wall time, which has no bound, and
the peak) and exits 1 when a run fails or peaks above its bound::

    python3 tools/simulate_peak.py 10000000:150 100000000:200
    python3 tools/simulate_peak.py --command signature --config sig.json --max-mb 300
"""

from __future__ import annotations

import argparse
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


def measure(command: str, config: Path, work: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak MB of one ``lobeq <command>``, its
    outputs written under ``work``."""
    out = Path(tempfile.mkdtemp(dir=work))
    peak = out / "peak"
    t0 = time.monotonic()
    code = subprocess.run([sys.executable, "-c", STUB, str(peak), command,
                           "--config", str(config), "--out", str(out / "out")],
                          stdin=subprocess.DEVNULL).returncode
    wall = time.monotonic() - t0
    return code, wall, int(peak.read_text()) / 1024 if peak.is_file() else float("nan")


def fast_simulate_config(n_events: int, work: Path) -> Path:
    """The config of fast ``lobeq simulate`` on the test-3 model at ``n_events``."""
    config = work / f"simulate_{n_events}.json"
    config.write_text(json.dumps({"params": PARAMS, "simulate": {
        "n_events": n_events, "seed": 1, "n_levels": 8}}))
    return config


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="*", metavar="N_EVENTS:MAX_MB",
                        help="fast lobeq simulate on the test-3 model")
    parser.add_argument("--command", help="a lobeq command to run on --config")
    parser.add_argument("--config", type=Path)
    parser.add_argument("--max-mb", type=float)
    args = parser.parse_args(argv)
    if len({args.command is None, args.config is None, args.max_mb is None}) > 1:
        parser.error("--command, --config and --max-mb go together")
    print("| run | wall s | peak MB | bound MB |")
    print("|---|---|---|---|")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = [(f"simulate, {int(float(n)):,} events",
                 "simulate", fast_simulate_config(int(float(n)), work), float(mb))
                for n, mb in (arg.split(":") for arg in args.runs)]
        if args.command is not None:
            runs.append((f"{args.command} {args.config}", args.command, args.config.resolve(),
                         args.max_mb))
        for name, command, config, max_mb in runs:
            code, wall, peak_mb = measure(command, config, work)
            over = code != 0 or not peak_mb <= max_mb
            failed |= over
            print(f"| {name} | {wall:.2f} | {peak_mb:.1f} | {max_mb:g}"
                  f"{' FAILED' if over else ''} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
