#!/usr/bin/env python3
"""The pipeline benchmark: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload tables_sf1 --seed 10 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 11

Run it from anywhere in a checkout: the program under test is imported
from ``src/`` beside this directory, and every file Spark writes goes to
``.perfbench_tmp/`` there, which is removed at exit.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
pipeline once traced, then Louvain on G_Hour, and reports the per-layer
metrics. The last line of standard output is one JSON object; ``all`` runs
every workload untraced and traced and prints a table. README.md beside
this file explains the workloads and metrics and records the baseline.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import TABLE_OF, check_louvain, check_tables
from spans import PROBE, SPAN_FIELDS, SPANS, WINDOW_SPANS, Tracer, span_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


#: Workload name -> ``paper_config`` scale factor. Both run Tables I-III
#: (``granularities=()``); why Louvain is not in the timed window is in
#: README.md.
WORKLOADS = {"tables_sf0.25": 0.25, "tables_sf1": 1.0}
#: Per-layer numbers of the Louvain probe, with their units.
LOUVAIN_COUNTS = {"nodes": "count", "edges": "count", "levels": "count",
                  "communities": "count", "q": "Q", "q_ref_gap": "Q", "ref_s": "s"}

END_TO_END = {"pipeline_s": "s", "setup_s": "s", "driver_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {f"{s}.{k}": u for s in SPANS for k, u in SPAN_FIELDS.items()}
    units.update({f"hac.{k}": "count" for k in
                  ("free_points", "components", "max_component", "candidates")})
    units.update({"stations.threshold": "count", "stations.n_selected": "count"})
    units.update({f"louvain.{PROBE}.{k}": u for k, u in LOUVAIN_COUNTS.items()})
    units.update({"jvm_hwm_mb": "MB", "trace.pipeline_s": "s", "trace.span_sum_s": "s",
                  "trace.absent_spans": "count"})
    return units


# ----------------------------------------------------------------------
# Spark session and set-up
# ----------------------------------------------------------------------

def prepare_env(tmp: Path) -> None:
    """Before the JVM starts: the program's sources on the driver's and the
    Python workers' path, every scratch file of Spark and Java under tmp."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )
    sys.path.insert(0, str(SRC))


def start_session(tmp: Path, event_log: Path | None = None):
    """A session with the settings of ``jobs/_common.get_spark`` on a
    fixed master, quiet and confined to tmp."""
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench").master(MASTER)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        # The status tracker keeps 1000 jobs by default; Louvain runs more.
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
    )
    if event_log is not None:
        event_log.mkdir(parents=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", event_log.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def set_up(sf: float, seed: int, tmp: Path, *, event_log: Path | None = None):
    """Session start, the first job, ``generate`` and materialising the raw
    tables. Returns (spark, data, tracer or None, seconds)."""
    from repro.moby.generator import generate, paper_config

    start = time.perf_counter()
    spark = start_session(tmp, event_log)
    spark.range(1).count()
    tracer = Tracer(spark.sparkContext) if event_log is not None else None
    with tracer.span("moby.generate") if tracer else contextlib.nullcontext():
        data = generate(spark, paper_config(sf=sf, seed=seed))
        data.locations.cache().count()
        data.rentals.cache().count()
    return spark, data, tracer, time.perf_counter() - start


# ----------------------------------------------------------------------
# one pipeline run
# ----------------------------------------------------------------------

def run_pipeline_once(spark, data, tracer=None):
    """The timed window: ``run_pipeline`` until Tables I-III and the
    headline are pandas on the driver. Returns (result, rendered, seconds)."""
    from repro import tables
    from repro.pipeline import run_pipeline

    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    start = time.perf_counter()
    with span("pipeline"):
        result = run_pipeline(spark, data=data, granularities=())
    with span("tables.render"):
        rendered = {n: getattr(tables, n)(result) for n in ("table1", "table2", "table3")}
        rendered["headline"] = tables.headline(result)
    return result, rendered, time.perf_counter() - start


def run_communities_probe(result, rendered, tracer) -> None:
    """After the window: Louvain and the community table for ``PROBE`` on
    the run's own selected graph, the way ``run_pipeline`` runs them."""
    import repro.pipeline as pipeline
    from repro import tables

    if not hasattr(pipeline, "run_communities"):
        return
    with tracer.span(f"communities.{PROBE}"):
        result.communities[PROBE] = pipeline.run_communities(result, PROBE)
        rendered[TABLE_OF[PROBE]] = getattr(tables, TABLE_OF[PROBE])(result)


def release(spark) -> None:
    """Drop everything a pipeline run persisted."""
    spark.catalog.clearCache()
    for rdd in spark.sparkContext._jsc.getPersistentRDDs().values():
        rdd.unpersist()


class Tally:
    """Attempted and failed runs; a failure is an exception or a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn):
        """Call ``fn() -> (out, problems)``; return out, or None if it raised."""
        self.attempted += 1
        try:
            out, problems = fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return out


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def measure(sf: float, seed: int, seconds: float, tmp: Path, tally: Tally) -> dict:
    """Untraced: SETUPS set-ups, then whole pipeline runs for ``seconds``."""
    setups = []
    for i in range(SETUPS):
        spark, data, _, dt = set_up(sf, seed, tmp)
        setups.append(dt)
        if i + 1 < SETUPS:
            spark.stop()

    def once():
        result, rendered, dt = run_pipeline_once(spark, data)
        return dt, check_tables(result, rendered, data.config)

    times = []
    start = time.perf_counter()
    while True:
        dt = tally.run(once)
        if dt is None:
            break
        times.append(dt)
        if time.perf_counter() - start >= seconds:
            break
        release(spark)
        data.locations.cache().count()
        data.rentals.cache().count()
    spark.stop()
    if not times:
        return {}
    return {
        "pipeline_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(sf: float, seed: int, tmp: Path, tally: Tally) -> dict:
    """One traced run, in a session with the event log on: the pipeline
    window as in ``measure``, then the Louvain probe. ``--workload all``
    sets ``trace.pipeline_s`` against an untraced run."""
    log_dir = tmp / "eventlog"
    spark, data, tracer, _ = set_up(sf, seed, tmp, event_log=log_dir)
    metrics = {}

    def traced():
        with tracer.patched():
            result, rendered, dt = run_pipeline_once(spark, data, tracer)
            run_communities_probe(result, rendered, tracer)
        problems = check_tables(result, rendered, data.config)
        louvain = {}
        if PROBE in result.communities:
            louvain_problems, louvain = check_louvain(result, PROBE)
            problems += louvain_problems
        metrics.update(_counts(result, louvain, tracer))
        jvm = spark._jvm.java.lang.ProcessHandle.current().pid()
        metrics["jvm_hwm_mb"] = _vm_hwm_mb(jvm)
        metrics["trace.pipeline_s"] = dt
        return dt, problems

    dt = tally.run(traced)
    tracked = tracer.tracker_jobs()
    spark.stop()  # flushes the event log
    if dt is None:
        return {}
    layer, problems = span_metrics(tracer, tracked, log_dir)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    tally.failed += bool(problems)
    metrics.update(layer)
    metrics["trace.span_sum_s"] = sum(layer[f"{n}.wall_s"] for n in WINDOW_SPANS)
    metrics["trace.absent_spans"] = len(tracer.absent)
    if tracer.absent:
        print(f"absent spans: {', '.join(tracer.absent)}", file=sys.stderr)
    return metrics


def _counts(result, louvain: dict, tracer) -> dict:
    """Output counts of the HAC, selection and Louvain layers."""
    from pyspark.sql import functions as F

    pdf = (
        result.candidates.assignment.filter(F.col("kind") == "candidate")
        .select("group_id").toPandas()
    )
    component = pdf["group_id"].str.split("#").str[0]
    out = {
        "hac.free_points": len(pdf),
        "hac.components": component.nunique(),
        "hac.max_component": int(component.value_counts().max()) if len(pdf) else 0,
        "hac.candidates": pdf["group_id"].nunique(),
        "stations.threshold": result.selection.threshold,
        "stations.n_selected": result.selection.n_selected,
    }
    # zeros when the probe could not run (its span is then absent)
    louvain = {**dict.fromkeys(LOUVAIN_COUNTS, 0), **louvain,
               "levels": tracer.levels.get(PROBE, 0)}
    out.update({f"louvain.{PROBE}.{k}": v for k, v in louvain.items()})
    return out


def _stop_jvm() -> None:
    """Shut down the JVM PySpark launched and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process: one
    table of every metric, and the tracing overhead per workload (traced
    minus untraced ``pipeline_s``)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(lines[-1]))
        untraced, traced = runs
        overhead = (traced["metrics"]["trace.pipeline_s"]["value"]
                    - untraced["metrics"]["pipeline_s"]["value"])
        metrics = {**untraced["metrics"], **traced["metrics"],
                   "trace.overhead_s": {"value": overhead, "unit": "s"}}
        for res in runs:
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
        for k, m in metrics.items():
            summary["metrics"][f"{name}/{k}"] = m
            print(f"{name + '/' + k:56s} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "repro" / "pipeline.py").is_file():
        print(f"perfbench: no program under test at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        prepare_env(tmp)
        sf = WORKLOADS[args.workload]
        tally = Tally()
        if args.trace:
            values, units = trace(sf, args.seed, tmp, tally), per_layer_units()
        else:
            values, units = measure(sf, args.seed, args.seconds, tmp, tally), END_TO_END
    finally:
        _stop_jvm()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items() if k in values}
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and len(metrics) == len(units),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
