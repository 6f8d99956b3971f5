"""Candidate-station construction (paper Section IV-A).

Pipeline:

1. **Pre-assignment** — any location within 50 m of a fixed station is
   assigned to that station's group (nearest wins) and excluded from
   clustering; stations are immovable group centroids.
2. **eps decomposition** — the remaining locations are split into
   connected components of the 100 m proximity graph (distributed grid
   join + message-passing components). Complete-linkage clusters with
   diameter <= 100 m are always subsets of such components, so this
   decomposition is *lossless*.
3. **Exact HAC** — complete-linkage clustering with the 100 m diameter
   cutoff runs per component via ``applyInPandas``.
4. **Centroids** — each candidate cluster is represented by the mean of
   its member coordinates; station groups by the station coordinate.

Group ids: stations ``"S<station_id>"``, candidates ``"C<component>#<k>"``.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import nearest_station
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.hac.linkage import complete_linkage_labels
from repro.hac.proximity import eps_edges

PRE_ASSIGN_M = 50.0
MAX_DIAMETER_M = 100.0


@dataclass(frozen=True)
class CandidateResult:
    """``assignment``: (location_id, group_id, kind[station|candidate]);
    ``groups``: (group_id, kind, lat, lon, station_id nullable)."""

    assignment: DataFrame
    groups: DataFrame


def build_candidates(locations: DataFrame, stations: DataFrame) -> CandidateResult:
    """Group every cleaned location into a station group or a candidate
    cluster. ``locations``: (location_id, lat, lon); ``stations``:
    (location_id, lat, lon, station_id)."""
    pts = locations.select("location_id", "lat", "lon")
    st = stations.select("station_id", "lat", "lon")

    near = nearest_station(pts, st, out_col="ns")
    station_assigned = near.filter(F.col("ns_dist_m") <= PRE_ASSIGN_M).select(
        "location_id",
        F.concat(F.lit("S"), F.col("ns").cast("long")).alias("group_id"),
        F.lit("station").alias("kind"),
    )
    free = near.filter(F.col("ns_dist_m") > PRE_ASSIGN_M).select(
        "location_id", "lat", "lon"
    ).cache()

    # eps-components of the free points
    edges = eps_edges(free, eps_m=MAX_DIAMETER_M).select(
        F.col("src"), F.col("dst"), F.lit(1.0).alias("weight")
    )
    verts = free.select(F.col("location_id").alias("id"))
    comp = connected_components(Graph(verts, edges))
    comp_pts = free.join(
        comp.withColumnRenamed("id", "location_id"), "location_id"
    )

    def _cluster(pdf: pd.DataFrame) -> pd.DataFrame:
        labels = complete_linkage_labels(
            pdf["lat"].to_numpy(), pdf["lon"].to_numpy(),
            max_diameter_m=MAX_DIAMETER_M,
        )
        comp_id = int(pdf["component"].iloc[0])
        return pd.DataFrame(
            {
                "location_id": pdf["location_id"].to_numpy(),
                "group_id": [f"C{comp_id}#{l}" for l in labels],
            }
        )

    clustered = comp_pts.groupBy("component").applyInPandas(
        _cluster, schema="location_id long, group_id string"
    )
    candidate_assigned = clustered.select(
        "location_id", "group_id", F.lit("candidate").alias("kind")
    )
    # localCheckpoint (not cache): downstream stages reference this frame
    # many times and nest it inside further joins — materialising here
    # keeps their logical plans shallow (a cache does not truncate lineage).
    assignment = station_assigned.unionByName(candidate_assigned).localCheckpoint()

    cand_groups = (
        candidate_assigned.join(pts, "location_id")
        .groupBy("group_id")
        .agg(F.avg("lat").alias("lat"), F.avg("lon").alias("lon"))
        .select(
            "group_id", F.lit("candidate").alias("kind"), "lat", "lon",
            F.lit(None).cast("long").alias("station_id"),
        )
    )
    st_groups = st.select(
        F.concat(F.lit("S"), F.col("station_id").cast("long")).alias("group_id"),
        F.lit("station").alias("kind"), "lat", "lon",
        F.col("station_id").cast("long").alias("station_id"),
    )
    groups = st_groups.unionByName(cand_groups).localCheckpoint()
    return CandidateResult(assignment=assignment, groups=groups)
