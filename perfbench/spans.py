"""Spans around the calls ``repro.pipeline.run_pipeline`` makes into each
layer, and the Spark work of each span read back from the event log.

A span is timed from outside: the benchmark replaces the layer functions
that ``repro.pipeline`` imported by name with wrappers, so the program
itself is not edited. Every span gets its own Spark job group (the status
tracker's ``getJobIdsForGroup`` is cumulative for a reused id), and jobs
started between spans belong to the enclosing span.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

#: The granularity whose Louvain run the traced run measures, after the
#: timed window (see README.md).
PROBE = "hour"
#: The spans inside the timed window; their self times add up to it.
WINDOW_SPANS = (
    "moby.clean",
    "hac.build_candidates",
    "graph.graph_stats",
    "stations.select_stations",
    "tables.render",
    "pipeline.self",
)
#: Every span the traced run reports: set-up, the window, then the Louvain
#: probe (``communities.<PROBE>`` is the self time of ``run_communities``
#: plus the render of its community table).
SPANS = (
    "moby.generate",
    *WINDOW_SPANS,
    f"communities.{PROBE}",
    f"louvain.{PROBE}",
    "analysis.intra_share",
)

#: Layer entry points called by ``run_pipeline``, by their name in
#: ``repro.pipeline``. ``louvain_groups`` becomes ``louvain.<granularity>``.
WRAPPED = {
    "clean": "moby.clean",
    "build_candidates": "hac.build_candidates",
    "graph_stats": "graph.graph_stats",
    "select_stations": "stations.select_stations",
    "louvain_groups": "louvain",
    "intra_community_share": "analysis.intra_share",
}

#: Per-span numbers, with their units.
SPAN_FIELDS = {
    "wall_s": "s",  # self time: the span's wall time minus its child spans
    "jobs": "count",
    "tasks": "count",
    "failed_tasks": "count",
    "busy_s": "s",  # union of the span's Spark job intervals
    "driver_s": "s",  # wall_s - busy_s: planning, Python, collects
    "exec_cpu_s": "s",
    "shuffle_mb": "MB",  # shuffle bytes written
}


@dataclass(frozen=True)
class Span:
    name: str
    group: str  # Spark job group id, unique per span
    start: float
    end: float
    parent: str | None  # job group of the enclosing span


class Tracer:
    """Records spans on one SparkContext and wraps ``repro.pipeline``."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self.absent: list[str] = []  # spans whose wrapped function is gone
        self.levels: dict[str, int] = {}  # granularity -> Louvain levels
        self._ids = itertools.count()
        self._stack: list[tuple[str, str]] = []  # (group, name)
        self._granularity = "unknown"

    @contextlib.contextmanager
    def span(self, name: str):
        group = f"{name}#{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append((group, name))
        self.sc.setJobGroup(group, name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if parent:
                self.sc.setJobGroup(*parent)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.spans.append(
                Span(name, group, start, end, parent[0] if parent else None)
            )

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            span = f"louvain.{self._granularity}" if name == "louvain" else name
            with self.span(span):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap the layer entry points of ``repro.pipeline`` for the
        duration of the block. A missing name marks its span absent."""
        import repro.pipeline as pipeline

        saved = {}

        def replace(attr, make):
            fn = getattr(pipeline, attr, None)
            if fn is None:
                return False
            saved[attr] = fn
            setattr(pipeline, attr, make(fn))
            return True

        def on_granularity(fn):
            def run_communities(result, granularity, *args, **kwargs):
                self._granularity = granularity
                return fn(result, granularity, *args, **kwargs)

            return run_communities

        def on_levels(fn):
            def louvain(*args, **kwargs):
                res = fn(*args, **kwargs)
                self.levels[self._granularity] = res.levels
                return res

            return louvain

        try:
            for attr, name in WRAPPED.items():
                if not replace(attr, lambda fn, name=name: self._wrap(fn, name)):
                    self.absent.append(name)
            if not replace("run_communities", on_granularity):
                self.absent.append("louvain")
            replace("louvain", on_levels)
            yield
        finally:
            for attr, fn in saved.items():
                setattr(pipeline, attr, fn)

    def tracker_jobs(self) -> dict[str, int]:
        """Jobs per span group as the status tracker counts them."""
        # The tracker is fed by the asynchronous listener bus.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        return {s.group: len(tracker.getJobIdsForGroup(s.group)) for s in self.spans}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Wall time of each span minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent:
            child[s.parent] += s.end - s.start
    return {s.group: s.end - s.start - child[s.group] for s in spans}


def _union_seconds(intervals: list[tuple[int, int]]) -> float:
    total, cur_start, cur_end = 0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total / 1000.0


def _no_jobs() -> dict:
    return {"jobs": 0, "tasks": 0, "failed_tasks": 0, "exec_cpu_s": 0.0,
            "shuffle_mb": 0.0, "busy_s": 0.0, "intervals": []}


def read_event_log(log_dir: Path) -> dict[str, dict]:
    """Per job group: jobs, tasks, failed tasks, busy seconds, executor CPU
    seconds and shuffle MB written, from the (uncompressed) event log of
    the one application that wrote to ``log_dir``."""
    (log,) = [p for p in log_dir.iterdir() if p.is_file()]
    groups: dict = defaultdict(_no_jobs)
    job_group, job_start, stage_group = {}, {}, {}
    with log.open() as f:
        for line in f:
            e = json.loads(line)
            kind = e["Event"]
            if kind == "SparkListenerJobStart":
                group = (e.get("Properties") or {}).get("spark.jobGroup.id")
                job_group[e["Job ID"]] = group
                job_start[e["Job ID"]] = e["Submission Time"]
                groups[group]["jobs"] += 1
            elif kind == "SparkListenerJobEnd":
                job = e["Job ID"]
                groups[job_group[job]]["intervals"].append(
                    (job_start[job], e["Completion Time"])
                )
            elif kind == "SparkListenerStageSubmitted":
                props = e.get("Properties") or {}
                stage_group[e["Stage Info"]["Stage ID"]] = props.get("spark.jobGroup.id")
            elif kind == "SparkListenerTaskEnd":
                g = groups[stage_group.get(e["Stage ID"])]
                g["tasks"] += 1
                if e["Task End Reason"]["Reason"] != "Success":
                    g["failed_tasks"] += 1
                m = e.get("Task Metrics") or {}
                g["exec_cpu_s"] += m.get("Executor CPU Time", 0) / 1e9
                written = (m.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0)
                g["shuffle_mb"] += written / 2**20
    for g in groups.values():
        g["busy_s"] = _union_seconds(g["intervals"])
    return groups


def span_metrics(
    tracer: Tracer, tracked: dict[str, int], log_dir: Path
) -> tuple[dict, list[str]]:
    """The per-span numbers of ``SPAN_FIELDS`` for every name in ``SPANS``
    (zeros for a span that did not run), plus a list of accounting
    problems: spans whose jobs ``tracked`` (from ``Tracer.tracker_jobs``)
    and the event log count differently."""
    jobs = read_event_log(log_dir)
    selfs = self_times(tracer.spans)
    metrics = {f"{name}.{k}": 0.0 for name in SPANS for k in SPAN_FIELDS}
    problems = []
    for s in tracer.spans:
        name = "pipeline.self" if s.name == "pipeline" else s.name
        g = jobs[s.group]
        if tracked[s.group] != g["jobs"]:
            problems.append(
                f"{s.group}: status tracker counts {tracked[s.group]} jobs, "
                f"event log {g['jobs']}"
            )
        row = dict(g, wall_s=selfs[s.group])
        row["driver_s"] = max(0.0, row["wall_s"] - row["busy_s"])
        for k in SPAN_FIELDS:
            metrics[f"{name}.{k}"] += row[k]
    return metrics, problems
