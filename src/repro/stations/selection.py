"""Station ranking & selection (paper Section IV-B, Algorithm 1).

Rules:

1. *Cluster-Boundary* (enforced upstream by HAC's 100 m diameter cutoff).
2. *Cluster-Proximity* (enforced upstream: candidate centroids closer than
   50 m can only arise from distinct eps-components, which are >= 100 m
   apart by construction).
3. *Degree-Threshold* — candidate degree >= min degree over fixed stations.
4. *Secondary-Distance* — candidate centroid >= 250 m from every fixed
   station, and (iterated) >= 250 m from every surviving higher-degree
   candidate.

Degrees are computed on the candidate graph in Spark (weighted in+out
degree = trips touching the group, self-trips counted twice). The greedy
suppression loop (Algorithm 1 lines 10-16) runs on the driver over the
collected candidate list — provably small (1,080 rows in the paper), and
the loop is inherently sequential.

After selection, every location of an unselected candidate is reassigned
to the nearest of the (old + new) stations, so total trips are conserved
(paper: "All trips from non-selected stations were redirected...").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import haversine_np, nearest_station

SECONDARY_DISTANCE_M = 250.0


@dataclass(frozen=True)
class SelectionResult:
    """``selected``: (group_id, lat, lon, degree) of the new stations;
    ``threshold``: the degree threshold used; ``final_assignment``:
    (location_id, station_group, is_new) mapping every location to one of
    the old+new stations."""

    selected: DataFrame
    threshold: float
    final_assignment: DataFrame
    n_selected: int


def group_degrees(trips: DataFrame) -> DataFrame:
    """Weighted total degree per group: trips out + trips in (self-trips
    count twice), as ``(group_id, degree)``."""
    ends = trips.select(F.col("src_group").alias("group_id")).unionByName(
        trips.select(F.col("dst_group").alias("group_id"))
    )
    return ends.groupBy("group_id").agg(F.count(F.lit(1)).cast("double").alias("degree"))


def _suppress(cand: pd.DataFrame, min_dist_m: float) -> np.ndarray:
    """Algorithm 1 lines 10-16: repeatedly zero the lower-degree member of
    any candidate pair closer than ``min_dist_m``. Equivalent greedy form:
    process candidates by descending degree (ties: smaller group_id) and
    keep one iff no already-kept candidate is within range."""
    order = np.lexsort((cand["group_id"].to_numpy(), -cand["degree"].to_numpy()))
    lat = cand["lat"].to_numpy()
    lon = cand["lon"].to_numpy()
    keep = np.zeros(len(cand), dtype=bool)
    kept_idx: list[int] = []
    for i in order:
        if kept_idx:
            d = haversine_np(lat[i], lon[i], lat[kept_idx], lon[kept_idx])
            if (d < min_dist_m).any():
                continue
        keep[i] = True
        kept_idx.append(i)
    return keep


def select_stations(
    candidate_groups: DataFrame,
    trips: DataFrame,
    locations: DataFrame,
    assignment: DataFrame,
) -> SelectionResult:
    """Run Algorithm 1.

    ``candidate_groups``: the HAC groups table (group_id, kind, lat, lon,
    station_id); ``trips``: candidate-graph trips (src_group/dst_group);
    ``locations``: cleaned locations (location_id, lat, lon);
    ``assignment``: location_id -> group_id/kind from the HAC stage.
    """
    deg = group_degrees(trips)
    g = candidate_groups.join(deg, "group_id", "left").fillna({"degree": 0.0})
    stations = g.filter(F.col("kind") == "station").cache()
    cands = g.filter(F.col("kind") == "candidate")

    threshold = float(
        stations.agg(F.min("degree").alias("t")).collect()[0]["t"] or 0.0
    )

    # Rule 3 + Rule 4 (vs fixed stations) in Spark, then the sequential
    # suppression loop on the driver.
    far_from_station = nearest_station(
        cands.select(F.col("group_id").alias("location_id"), "lat", "lon"),
        stations.select("station_id", "lat", "lon"),
        out_col="ns",
    ).filter(F.col("ns_dist_m") >= SECONDARY_DISTANCE_M).select(
        F.col("location_id").alias("group_id")
    )
    survivors = (
        cands.filter(F.col("degree") >= threshold)
        .join(far_from_station, "group_id", "left_semi")
        .select("group_id", "lat", "lon", "degree")
    )
    cand_pdf = survivors.toPandas()
    if len(cand_pdf):
        keep = _suppress(cand_pdf, SECONDARY_DISTANCE_M)
        sel_pdf = cand_pdf[keep].reset_index(drop=True)
    else:
        sel_pdf = cand_pdf
    spark = candidate_groups.sparkSession
    schema = "group_id string, lat double, lon double, degree double"
    selected = spark.createDataFrame(sel_pdf, schema=schema).cache()

    # --- final location -> station mapping ------------------------------
    all_stations = (
        stations.select("group_id", "lat", "lon", F.lit(False).alias("is_new"))
        .unionByName(selected.select("group_id", "lat", "lon", F.lit(True).alias("is_new")))
        .cache()
    )
    kept_groups = all_stations.select("group_id")
    keep_assign = assignment.join(kept_groups, "group_id", "left_semi").select(
        "location_id", F.col("group_id").alias("station_group")
    )
    orphaned = assignment.join(kept_groups, "group_id", "left_anti").select(
        "location_id"
    )
    reassigned = nearest_station(
        orphaned.join(locations.select("location_id", "lat", "lon"), "location_id"),
        all_stations.select(F.col("group_id").alias("station_id"), "lat", "lon"),
        out_col="ns",
    ).select("location_id", F.col("ns").alias("station_group"))
    # localCheckpoint: this frame is joined against the rental table twice
    # per downstream graph build — keep its plan flat.
    final = (
        keep_assign.unionByName(reassigned)
        .join(
            all_stations.select(
                F.col("group_id").alias("station_group"), "is_new"
            ),
            "station_group",
        )
        .localCheckpoint()
    )
    return SelectionResult(
        selected=selected,
        threshold=threshold,
        final_assignment=final,
        n_selected=selected.count(),
    )
