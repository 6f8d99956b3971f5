"""Distributed eps-proximity graph over GPS points.

"All pairs within eps metres" as an equi-join: bucket points into a
geo-grid whose cell side is >= eps (so any eps-pair lands in the same or
an adjacent cell), replicate each point to its 3x3 cell neighbourhood on
one side of the join, equi-join on cell id, then filter by exact Haversine
distance. Emits each unordered pair once (``src < dst``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import haversine_col, with_grid_cell


def eps_edges(points: DataFrame, *, eps_m: float) -> DataFrame:
    """Edges ``(src, dst, dist_m)`` for all unordered pairs within
    ``eps_m`` metres. ``points`` has ``(location_id, lat, lon)`` with
    unique ``location_id``."""
    p = with_grid_cell(
        points.select(F.col("location_id").alias("id"), "lat", "lon"), eps_m=eps_m
    )
    # left side: points in their home cell
    left = p.select(
        F.col("id").alias("src"), F.col("lat").alias("lat_a"),
        F.col("lon").alias("lon_a"), "cell_i", "cell_j",
    )
    # right side: points replicated to all 9 neighbouring cells
    offsets = F.expr(
        "explode(arrays_zip(array(-1,-1,-1,0,0,0,1,1,1), array(-1,0,1,-1,0,1,-1,0,1)))"
    ).alias("o")
    right = (
        p.select("id", "lat", "lon", "cell_i", "cell_j", offsets)
        .select(
            F.col("id").alias("dst"), F.col("lat").alias("lat_b"),
            F.col("lon").alias("lon_b"),
            (F.col("cell_i") + F.col("o.0")).alias("cell_i"),
            (F.col("cell_j") + F.col("o.1")).alias("cell_j"),
        )
    )
    pairs = left.join(right, ["cell_i", "cell_j"]).filter(F.col("src") < F.col("dst"))
    dist = haversine_col(
        F.col("lat_a"), F.col("lon_a"), F.col("lat_b"), F.col("lon_b")
    )
    return (
        pairs.withColumn("dist_m", dist)
        .filter(F.col("dist_m") <= F.lit(float(eps_m)))
        .select("src", "dst", "dist_m")
    )
