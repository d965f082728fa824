"""Run one ``run_pipeline`` call in a fresh process and report what it cost.

Usage: ``python3 perfbench/op.py SPEC.json RESULT.json``. The spec names the
package source, the pipeline configuration, whether to trace, and an
optional segment to copy into the input directory inside the timed region.
A fresh process per call makes the peak-RSS high-water mark this call's.
"""

from __future__ import annotations

import functools
import json
import resource
import shutil
import sys
import time


def _cpu_s():
    return sum(
        u.ru_utime + u.ru_stime
        for u in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from crowdseries.ingest import FrameGeometry
    from crowdseries.pipeline import PipelineConfig, run_pipeline

    from tracing import Tracer

    config = PipelineConfig(
        input_dir=spec["input_dir"],
        output_dir=spec["output_dir"],
        geometry=FrameGeometry(*spec["geometry"]),
        augment_weeks=spec["augment_weeks"],
        seed=spec["seed"],
        workers=spec["workers"],
    )
    tracer = None
    call = run_pipeline
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        call = functools.partial(tracer.root, run_pipeline)

    cpu0 = _cpu_s()
    start = time.perf_counter()
    if spec.get("append"):
        shutil.copyfile(*spec["append"])
    call(config)
    run_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0

    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            "names": tracer.summary(),
            "missing": tracer.missing,
            "spans": len(tracer.spans),
        }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
