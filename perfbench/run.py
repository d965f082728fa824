"""Benchmark harness for crowdseries: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance-12w --seed 1 --seconds 10 --trace 0

It builds the workload's segment CSVs from the seed (several times, to time
set-up), then repeats the workload's operation, one ``run_pipeline`` call in
a fresh process each, until ``--seconds`` of measuring have passed. Every
output is checked. It prints one ``name value unit`` line per metric and a
provenance line, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
operation twice, untraced and traced, and reports the per-layer metrics of
the traced call together with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HARD_LIMIT_S = 165  # an invocation must end within 180 s
SETUP_REPEATS = 3
PIPELINE_SEED = 12  # the augmentation seed of acceptance criterion 8
WORK_DIR = ".perfbench_work"
HERE = Path(__file__).resolve().parent


def tree_rss_kb(pid):
    """Resident memory of a process and all its descendants, from /proc."""
    total = 0
    pending = [pid]
    while pending:
        p = pending.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                total += next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    pending.extend(int(c) for c in fh.read().split())
        except (OSError, StopIteration, ValueError):
            continue  # the process ended while it was being read
    return total


class Runner:
    """Runs op.py in a fresh process per call, within the invocation's deadline."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline

    def op(self, spec):
        spec_path = self.work / "spec.json"
        result_path = self.work / "result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        peak_kb = 0
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "op.py"), str(spec_path), str(result_path)],
            stdout=sys.stderr,
        )
        try:
            while True:
                try:
                    proc.wait(timeout=0.05)
                    break
                except subprocess.TimeoutExpired:
                    peak_kb = max(peak_kb, tree_rss_kb(proc.pid))
                    if time.perf_counter() > self.deadline:
                        break
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall_s = time.perf_counter() - start
        result = {"run_s": wall_s, "cpu_s": 0.0, "maxrss_mb": 0.0}
        if proc.returncode != 0:
            result["error"] = f"operation exited with {proc.returncode}"
        else:
            result.update(json.loads(result_path.read_text()))
        # with worker processes the tree's sampled sum exceeds one process's peak
        result["peak_rss_mb"] = max(result["maxrss_mb"], peak_kb / 1024)
        return result


def provenance(root, args):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "crowdseries").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
        commit = git.stdout.strip() or commit
    except (OSError, subprocess.TimeoutExpired):
        pass
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "tiny": args.tiny,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(args, root, work, started):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    make = workload.tiny if args.tiny else workload.make
    runner = Runner(work, started + HARD_LIMIT_S)

    setup_times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fixture = make(work / f"setup{rep}" / "segments", args.seed)
        setup_times.append(time.perf_counter() - t0)
    for rep in range(SETUP_REPEATS - 1):
        shutil.rmtree(work / f"setup{rep}")

    out = work / "out"
    geometry = fixture.geometry
    spec = {
        "src": str(root / "src"),
        "input_dir": str(fixture.input_dir),
        "output_dir": str(out),
        "geometry": [geometry.width, geometry.height, geometry.fps],
        "augment_weeks": workload.tiny_augment_weeks if args.tiny else workload.augment_weeks,
        "seed": PIPELINE_SEED,
        "workers": len(os.sched_getaffinity(0)),  # nproc
        "trace": False,
        "append": None,
    }
    warm_s = 0.0
    if workload.append:
        t0 = time.perf_counter()
        warm = runner.op(spec)
        warm_s = time.perf_counter() - t0
        if "error" in warm:
            raise RuntimeError(f"warm-up run failed: {warm['error']}")
        snapshot = work / "warm"
        shutil.copytree(out, snapshot)
        appended = fixture.input_dir / fixture.extra_segment.name
        spec["append"] = [str(fixture.extra_segment), str(appended)]

    def attempt(traced):
        shutil.rmtree(out, ignore_errors=True)
        if workload.append:
            appended.unlink(missing_ok=True)
            shutil.copytree(snapshot, out)  # the warm snapshot, at the same path
        result = runner.op(dict(spec, trace=traced))
        if "error" in result:
            result["problems"] = [result["error"]]
        else:
            try:
                result["problems"] = workloads.check_outputs(fixture, out)
            except (OSError, ValueError, KeyError) as exc:
                result["problems"] = [f"outputs unreadable: {exc}"]
        result["segment_files"] = len(list(fixture.input_dir.glob("*.csv")))
        return result

    plain, traced = [], []
    measure_end = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        plain.append(attempt(False))
        if args.trace:
            traced.append(attempt(True))
        now = time.perf_counter()
        if now >= measure_end or now + (now - t0) > started + HARD_LIMIT_S:
            break

    results = plain + traced
    failures = [r for r in results if r["problems"]]
    n_obs = len(fixture.counts)
    run_s = [r["run_s"] for r in plain]
    end_to_end = {
        "run_s": (_median(run_s), "s"),
        "intervals_per_s": (_median([n_obs / s for s in run_s]), "1/s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB"),
        "setup_s": (_median(setup_times) + warm_s, "s"),
    }
    report = {
        "end_to_end": end_to_end,
        "failed_share": (len(failures) / len(results), "ratio"),
        "attempted": len(results),
        "failed": len(failures),
        "samples": len(plain),
        "problems": sorted({p for r in failures for p in r["problems"]}),
    }
    if args.trace:
        report["per_layer"] = per_layer(tracing, plain, traced)
        report["missing"] = sorted(
            {name for r in traced for name in r.get("trace", {}).get("missing", [])}
        )
    return report


def per_layer(tracing, plain, traced):
    """Medians over the traced calls, plus process and tracing-cost figures."""
    rows = []
    for p, t in zip(plain, traced):
        trace = t.get("trace", {"names": {}, "missing": [], "spans": 0})
        summary = trace["names"]
        row = tracing.layer_metrics(summary, t["segment_files"])
        self_sum = sum(entry["self_s"] for entry in summary.values())
        root_self = summary.get(tracing.ROOT, {}).get("self_s", 0.0)
        row.update(
            {
                "proc.cpu_s": (p["cpu_s"], "s"),
                "proc.cores_used": (p["cpu_s"] / p["run_s"], "cores"),
                "trace.run_s": (t["run_s"], "s"),
                "trace.untraced_run_s": (p["run_s"], "s"),
                "trace.overhead_s": (t["run_s"] - p["run_s"], "s"),
                "trace.self_sum_s": (self_sum, "s"),
                "trace.wrapped_share": ((self_sum - root_self) / t["run_s"], "ratio"),
                "trace.spans": (trace["spans"], "count"),
                "trace.missing_names": (len(trace["missing"]), "count"),
            }
        )
        rows.append(row)
    return {
        name: (_median([row[name][0] for row in rows]), unit)
        for name, (_, unit) in rows[0].items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload, for smoke checks")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "crowdseries" / "__init__.py").is_file():
        print(f"perfbench: no crowdseries sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = measure(args, root, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"samples={report['samples']} (each value a median over them)"
    )
    shown = dict(report["end_to_end"], failed_share=report["failed_share"])
    if args.trace:
        shown.update(report["per_layer"])
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        print(f"trace.missing {json.dumps(report['missing'])}")
    for problem in report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"provenance {json.dumps(provenance(root, args), sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
