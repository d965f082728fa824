"""Record one benchmark run of every workload into a trend file.

Run from the repository root:

    python3 bench/record.py --seed 5 --output BENCH_<n>.json

For each workload listed in BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

and stores the run's final JSON line (``correct``, ``attempted``, ``failed``
and the end-to-end ``metrics``) with its provenance line, under the
workload's name. The file also records the commit, the Python and numpy
versions and ``os.cpu_count()``. ``perfbench/`` itself is not changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(workload, seed):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "10",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"record: {workload} exited with {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line.split(" ", 1)[1])
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output", required=True, help="e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    record = {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "workloads": {},
    }
    for workload in workloads:
        print(f"record: {workload}", file=sys.stderr)
        record["workloads"][workload] = run_workload(workload, args.seed)
    Path(args.output).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
