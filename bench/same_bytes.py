"""Check that two source trees write the same artifacts on every workload.

Run from the repository root, with a checkout of another commit:

    python3 bench/same_bytes.py ../parent/src --seed 5

For each workload of ``perfbench/workloads.py`` it builds the full fixture
from the seed, then runs ``run_pipeline`` on it in a fresh process, once with
the package from PARENT_SRC and once with the one from ``src/``, as
``perfbench/run.py`` does: the workload's augment weeks, pipeline seed 12
and ``workers`` = nproc. For ``append-one`` each side does a warm run, then
the extra segment is appended and the pipeline runs again on the warm
output directory. Every artifact but ``manifest.json`` (older trees key it
by absolute path) is compared byte for byte. The files that differ are listed, and the
exit status is 1 if any does. The work goes under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "same_bytes"
PIPELINE_SEED = 12  # perfbench's pipeline seed

# one run_pipeline call; argv: package source, then the config as JSON
RUN_ONE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from crowdseries.ingest import FrameGeometry
from crowdseries.pipeline import PipelineConfig, run_pipeline
spec = json.loads(sys.argv[2])
spec["geometry"] = FrameGeometry(*spec["geometry"])
run_pipeline(PipelineConfig(**spec))
"""


def run_one(src, spec):
    subprocess.run([sys.executable, "-c", RUN_ONE, str(src), json.dumps(spec)], check=True)


def run_side(src, workload, fixture, out):
    geometry = fixture.geometry
    spec = {
        "input_dir": str(fixture.input_dir),
        "output_dir": str(out),
        "geometry": [geometry.width, geometry.height, geometry.fps],
        "augment_weeks": workload.augment_weeks,
        "seed": PIPELINE_SEED,
        "workers": len(os.sched_getaffinity(0)),
    }
    run_one(src, spec)
    if workload.append:
        appended = fixture.input_dir / fixture.extra_segment.name
        shutil.copyfile(fixture.extra_segment, appended)
        try:
            run_one(src, spec)
        finally:
            appended.unlink()


def differing(a, b):
    """Names of the artifacts, manifest.json aside, that differ or exist once."""
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    names.discard("manifest.json")
    return sorted(
        name
        for name in names
        if not ((a / name).is_file() and (b / name).is_file())
        or (a / name).read_bytes() != (b / name).read_bytes()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the other tree's src/ directory")
    parser.add_argument("--seed", type=int, required=True, help="fixture seed")
    args = parser.parse_args(argv)
    parent_src = args.parent_src.resolve()
    if not (parent_src / "crowdseries" / "__init__.py").is_file():
        parser.error(f"no crowdseries package under {parent_src}")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    shutil.rmtree(WORK, ignore_errors=True)
    failed = False
    try:
        for name, workload in WORKLOADS.items():
            work = WORK / name
            fixture = workload.make(work / "segments", args.seed)
            outputs = {}
            for side, src in (("parent", parent_src), ("change", ROOT / "src")):
                outputs[side] = work / side
                run_side(src, workload, fixture, outputs[side])
            diff = differing(outputs["parent"], outputs["change"])
            count = len(list(outputs["change"].iterdir())) - 1
            print(f"{name}: {len(diff)} of {count} artifact(s) differ")
            for artifact in diff:
                print(f"  {artifact}")
            failed |= bool(diff)
            shutil.rmtree(work)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # not empty: something else keeps files there
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
