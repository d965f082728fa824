"""Outside-in span tracing of crowdseries' public functions.

The pipeline modules look their collaborators up as module globals at call
time, so replacing those attributes with timing wrappers records a span
around every call without editing the package. Spans are kept in memory
and reduced to per-layer metrics after the run.

Self time: at every instant, the innermost open spans (those with no open
child, in any thread) share that instant equally. Without threads this is
a span's duration minus the part covered by its children; with the thread
pool of ``build_series`` it splits the parallel wall time between the
workers, so the self times of all spans sum to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs replaced by wrappers; the attribute is what the
# calling module looks up, so "pipeline.parse_segment_csv" times the
# pipeline's calls into ingest.
WRAPPED = (
    ("pipeline", "build_series"),
    ("pipeline", "discover_segments"),
    ("pipeline", "parse_segment_csv"),
    ("pipeline", "filter_by_class"),
    ("pipeline", "count_series"),
    ("pipeline", "heatmap_series"),
    ("pipeline", "stl_decompose"),
    ("series", "rasterize_mask"),
    ("stl", "loess_smooth"),
    ("detect", "t_ppf"),
    ("augment", "partition_for_stats"),
    ("augment", "grouped_stats"),
    ("augment", "extend_backward"),
    ("detect", "compute_threshold"),
    ("detect", "collective_anomalies"),
    ("detect", "rosner_critical_value"),
    ("detect", "esd_test"),
    ("detect", "seasonal_esd"),
    ("detect", "build_report"),
    ("storage", "write_series"),
    ("storage", "read_series"),
    ("storage", "write_grouped_stats"),
    ("storage", "read_grouped_stats"),
    ("storage", "write_decomposition"),
    ("storage", "read_decomposition"),
    ("storage", "write_report"),
    ("storage", "read_report"),
)
# augment's per-sample helpers (gumbel_ppf, laplace_ppf, sample_*) are left
# out on purpose: one span costs about as much as one of their calls.

ROOT = "pipeline.run_pipeline"


def _len(result, args, kwargs):
    return len(result)


def _gaps(result, args, kwargs):
    return len(result.gaps)


def _synthetic(result, args, kwargs):
    series = args[0] if args else kwargs["series"]
    return len(result) - len(series)


def _written(position):
    def count(result, args, kwargs):
        return Path(args[position] if len(args) > position else kwargs["path"]).stat().st_size

    return count


def _series_written(result, args, kwargs):
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    return path.stat().st_size + path.with_suffix(path.suffix + ".meta").stat().st_size


# Per-call counts taken from a wrapped call's result or arguments.
COUNTERS = {
    "pipeline.parse_segment_csv": _len,
    "pipeline.count_series": _gaps,
    "augment.extend_backward": _synthetic,
    "detect.collective_anomalies": _len,
    "detect.seasonal_esd": _len,
    "storage.write_series": _series_written,  # the CSV and its .meta sidecar
    "storage.write_grouped_stats": _written(1),
    "storage.write_decomposition": _written(2),
    "storage.write_report": _written(1),
}


class Tracer:
    """Records spans around wrapped module attributes while installed."""

    def __init__(self):
        self.names = []
        self.spans = []  # (id, name index, start, end, parent id, count)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: its work belongs to the main thread's open span
                main = self._main_stack
                parent = main[-1] if main else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            count = 0
            if counter is not None:
                try:
                    count = counter(result, args, kwargs)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass  # a changed signature costs the count, never the run
            self.spans.append((span_id, index, start, end, parent, count))
            return result

        return wrapper

    def install(self, package="crowdseries"):
        """Wrap every name in WRAPPED that the package still defines."""
        self._main_stack = self._stack()
        for module_name, attr in WRAPPED:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` under the root span that every other span nests in."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    def summary(self):
        """Per-name call count, self seconds and summed counts."""
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
        for _, index, _, _, _, count in self.spans:
            entry = totals[self.names[index]]
            entry["calls"] += 1
            entry["count"] += count
        by_id = {s[0]: self.names[s[1]] for s in self.spans}
        for span_id, self_s in self_times(self.spans).items():
            totals[by_id[span_id]]["self_s"] += self_s
        return dict(totals)


def self_times(spans):
    """Self seconds per span id, sharing overlapping leaf time equally."""
    events = []
    for span_id, _, start, end, parent, _ in spans:
        events.append((start, 1, span_id, parent))
        events.append((end, 0, span_id, parent))
    events.sort()
    open_children = defaultdict(int)
    opened = set()
    leaves = set()
    result = defaultdict(float)
    last = None
    for t, is_start, span_id, parent in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        last = t
        if is_start:
            opened.add(span_id)
            leaves.add(span_id)
            if parent in opened:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            opened.discard(span_id)
            leaves.discard(span_id)
            if parent in opened:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return result


# The four stage bodies of run_pipeline, each known by the first call it makes.
STAGE_BODIES = (
    "pipeline.build_series",
    "augment.partition_for_stats",
    "pipeline.stl_decompose",
    "detect.compute_threshold",
)
STORAGE_WRITES = tuple(f"storage.{a}" for m, a in WRAPPED if a.startswith("write_"))
STORAGE_READS = tuple(f"storage.{a}" for m, a in WRAPPED if a.startswith("read_"))


def layer_metrics(summary, segment_files):
    """Per-layer metrics, as {name: (value, unit)}, from ``Tracer.summary``."""

    def pick(key, *names):
        return sum(summary[n][key] for n in names if n in summary)

    def self_s(*names):
        return pick("self_s", *names)

    def per(total, count, scale=1e6):
        return scale * total / count if count else 0.0

    parse_s = self_s("pipeline.parse_segment_csv")
    rows = pick("count", "pipeline.parse_segment_csv")
    rasterize_s = self_s("series.rasterize_mask")
    masks = pick("calls", "series.rasterize_mask")
    stages_run = sum(1 for n in STAGE_BODIES if n in summary)
    return {
        "ingest.parse_s": (parse_s, "s"),
        "ingest.rows": (rows, "count"),
        "ingest.parse_us_per_row": (per(parse_s, rows), "us"),
        "ingest.filter_s": (self_s("pipeline.filter_by_class"), "s"),
        "ingest.rasterize_s": (rasterize_s, "s"),
        "ingest.masks": (masks, "count"),
        "ingest.rasterize_us_per_mask": (per(rasterize_s, masks), "us"),
        "ingest.files_parsed_share": (
            per(pick("calls", "pipeline.parse_segment_csv"), segment_files, 1.0),
            "ratio",
        ),
        "series.count_s": (self_s("pipeline.count_series"), "s"),
        "series.heatmap_self_s": (self_s("pipeline.heatmap_series"), "s"),
        "series.gaps": (pick("count", "pipeline.count_series"), "count"),
        "pipeline.self_s": (self_s(ROOT, "pipeline.build_series"), "s"),
        "pipeline.discover_s": (self_s("pipeline.discover_segments"), "s"),
        "pipeline.stages_run": (stages_run, "count"),
        "pipeline.stages_skipped": (len(STAGE_BODIES) - stages_run, "count"),
        "storage.write_s": (self_s(*STORAGE_WRITES), "s"),
        "storage.read_s": (self_s(*STORAGE_READS), "s"),
        "storage.bytes_written": (pick("count", *STORAGE_WRITES), "B"),
        "augment.stats_s": (self_s("augment.partition_for_stats", "augment.grouped_stats"), "s"),
        "augment.extend_s": (self_s("augment.extend_backward"), "s"),
        "augment.synthetic_points": (pick("count", "augment.extend_backward"), "count"),
        "stl.decompose_self_s": (self_s("pipeline.stl_decompose"), "s"),
        "loess.smooth_s": (self_s("stl.loess_smooth"), "s"),
        "loess.calls": (pick("calls", "stl.loess_smooth"), "count"),
        "studentt.t_ppf_s": (self_s("detect.t_ppf"), "s"),
        "studentt.t_ppf_calls": (pick("calls", "detect.t_ppf"), "count"),
        "detect.esd_self_s": (
            self_s("detect.seasonal_esd", "detect.esd_test", "detect.rosner_critical_value"),
            "s",
        ),
        "detect.esd_steps": (pick("calls", "detect.rosner_critical_value"), "count"),
        "detect.points": (pick("count", "detect.seasonal_esd"), "count"),
        "detect.collective_runs": (pick("count", "detect.collective_anomalies"), "count"),
        "detect.other_s": (
            self_s(
                "detect.compute_threshold", "detect.collective_anomalies", "detect.build_report"
            ),
            "s",
        ),
    }
