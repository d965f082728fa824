"""Smoke check of the benchmark harness itself.

Run from the repository root (it takes about a minute):

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at a tiny size, traced and untraced; each metric that
BENCHMARK.json names must be printed with its unit, and no run may fail.
Tiny fixtures plant no anomaly, so the criterion-8 recovery check is
exercised here on hand-made reports and on the program only at full size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import MONDAY, STEP, WORKLOADS, check_recovery  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_harness(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_self_times_split_parallel_time_and_sum_to_the_root():
    # root 0..10 holds a child 1..9, which two pool threads cover 2..6 and 4..8
    spans = [
        (1, 0, 0.0, 10.0, 0, 0),
        (2, 0, 1.0, 9.0, 1, 0),
        (3, 0, 2.0, 6.0, 2, 0),
        (4, 0, 4.0, 8.0, 2, 0),
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(2.0)  # 1..2 and 8..9
    assert got[3] == pytest.approx(3.0)  # 2..4 alone, half of 4..6
    assert got[4] == pytest.approx(3.0)  # half of 4..6, 6..8 alone
    assert sum(got.values()) == pytest.approx(10.0)


def test_removed_names_are_reported_missing(monkeypatch):
    monkeypatch.setattr(
        tracing, "WRAPPED", tracing.WRAPPED + (("pipeline", "gone"), ("no_module", "gone"))
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["pipeline.gone", "no_module.gone"]
    finally:
        tracer.uninstall()
    import crowdseries.pipeline

    assert not hasattr(crowdseries.pipeline.build_series, "__wrapped__")


def test_recovery_check_compares_timestamps():
    plateau = (MONDAY + 10 * STEP, MONDAY + 20 * STEP)
    planted = {"plateau": plateau, "spike": MONDAY + 3 * STEP, "inside": MONDAY + 12 * STEP}

    def report(first_point, *others):
        return {
            "collective": [
                {"start_timestamp": plateau[0].isoformat(),
                 "end_timestamp": (plateau[1] - STEP).isoformat()}
            ],
            "points": [
                {"timestamp": ts.isoformat(), "rank": rank}
                for rank, ts in enumerate((first_point, *others), start=1)
            ],
        }

    assert check_recovery(planted, report(MONDAY + 3 * STEP, MONDAY - STEP)) == []
    assert check_recovery(planted, report(MONDAY - STEP, MONDAY + 3 * STEP)) == [
        "planted spike is not ranked first"
    ]
    assert check_recovery(planted, report(MONDAY + 3 * STEP, MONDAY + 12 * STEP)) == [
        "in-plateau spike was not excluded"
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_harness("--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = (float(parts[1]), parts[2])
    assert printed["failed_share"] == (0.0, "ratio")
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected + (BENCHMARK["end_to_end"] if trace else []):
        assert printed[m["name"]][1] == m["unit"], m["name"]
        if m["name"] in result["metrics"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("provenance {") for line in lines)

    if trace:
        values = {name: v["value"] for name, v in result["metrics"].items()}
        assert values["trace.missing_names"] == 0
        assert abs(values["trace.self_sum_s"] - values["trace.run_s"]) <= max(
            abs(values["trace.overhead_s"]), 0.01
        )
        assert values["ingest.files_parsed_share"] == 1.0
        assert values["pipeline.stages_run"] == 4  # every run rebuilds every stage


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_harness("--workload", "acceptance-12w", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
