"""The one SparkSession builder of the repo, used by ``jobs/run_all.py``
and the test suite's ``spark`` fixture.

The settings are the ones ``perfbench/`` measures: 16 shuffle partitions
(the data is small, so more partitions only add scheduling overhead),
Arrow for ``toPandas``/``createDataFrame``, and automatic broadcast joins
off so the joins exercise the shuffle path. Master and driver memory are
left to ``spark-submit``/``PYSPARK_SUBMIT_ARGS``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
