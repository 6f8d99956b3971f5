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
degree = trips touching the group, self-trips counted twice) and
collected once with the groups table; everything else runs on the driver:
the threshold, the 250 m rule against the stations
(:func:`repro.geo.nearest_np`), and the greedy suppression loop
(Algorithm 1 lines 10-16) — provably small (1,080 rows in the paper), and
the loop is inherently sequential.

After selection, every location of an unselected candidate is reassigned
to the nearest of the (old + new) stations, so total trips are conserved
(paper: "All trips from non-selected stations were redirected...").

Driver-side bound, for L locations, G groups, S old + new stations and n
candidates of which ``kept`` survive: memory O(L + G) plus O(block x S)
for the nearest-station kernel; time O(L.S + n.kept).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import haversine_np, nearest_np

SECONDARY_DISTANCE_M = 250.0

SELECTED_SCHEMA = "group_id string, lat double, lon double, degree double"
FINAL_SCHEMA = "location_id long, station_group string, is_new boolean"


@dataclass(frozen=True)
class SelectionResult:
    """``selected``: (group_id, lat, lon, degree) of the new stations;
    ``threshold``: the degree threshold used; ``final_assignment``:
    (location_id, station_group, is_new) mapping every location to one of
    the old+new stations; ``stations``: pandas (group_id, lat, lon, is_new)
    of the old+new stations; ``funnel``: candidates left after each step
    of Algorithm 1, in order."""

    selected: DataFrame
    threshold: float
    final_assignment: DataFrame
    n_selected: int
    stations: pd.DataFrame
    funnel: dict[str, int]


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
    spark = candidate_groups.sparkSession
    g = (
        candidate_groups.join(group_degrees(trips), "group_id", "left")
        .fillna({"degree": 0.0})
        .select("group_id", "kind", "lat", "lon", "degree")
        .toPandas()
        .sort_values("group_id", ignore_index=True)
    )
    stations = g[g["kind"] == "station"]
    cands = g[g["kind"] == "candidate"]

    # Rule 3, then Rule 4 against the fixed stations, then the sequential
    # suppression loop.
    _, st_dist = nearest_np(
        cands["lat"], cands["lon"], stations["group_id"], stations["lat"], stations["lon"]
    )
    threshold = float(stations["degree"].min())
    strong = (cands["degree"] >= threshold).to_numpy()
    far = strong & (st_dist >= SECONDARY_DISTANCE_M)
    survivors = cands[far]
    sel = survivors[_suppress(survivors, SECONDARY_DISTANCE_M)][
        ["group_id", "lat", "lon", "degree"]
    ]
    funnel = {
        "candidates": len(cands),
        "degree >= threshold": int(strong.sum()),
        f">= {SECONDARY_DISTANCE_M:g} m from stations": int(far.sum()),
        "after suppression": len(sel),
    }

    # --- final location -> station mapping ------------------------------
    all_stations = pd.concat([
        stations[["group_id", "lat", "lon"]].assign(is_new=False),
        sel[["group_id", "lat", "lon"]].assign(is_new=True),
    ], ignore_index=True)
    loc = (
        assignment.join(locations.select("location_id", "lat", "lon"), "location_id")
        .select("location_id", "group_id", "lat", "lon")
        .toPandas()
    )
    station_group = loc["group_id"].to_numpy(dtype=object, copy=True)
    orphaned = ~loc["group_id"].isin(all_stations["group_id"]).to_numpy()
    station_group[orphaned] = nearest_np(
        loc["lat"][orphaned], loc["lon"][orphaned],
        all_stations["group_id"], all_stations["lat"], all_stations["lon"],
    )[0]
    final = pd.DataFrame({
        "location_id": loc["location_id"],
        "station_group": station_group,
        "is_new": np.isin(station_group, sel["group_id"]),
    })
    # localCheckpoint: this frame is joined against the rental table twice
    # per downstream graph build — keep its plan flat.
    return SelectionResult(
        selected=spark.createDataFrame(sel, SELECTED_SCHEMA),
        threshold=threshold,
        final_assignment=spark.createDataFrame(final, FINAL_SCHEMA).localCheckpoint(),
        n_selected=len(sel),
        stations=all_stations,
        funnel=funnel,
    )
