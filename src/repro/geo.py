"""Geospatial primitives shared by every stage of the pipeline.

The paper (eq. 1) measures all distances with the Haversine formula on a
spherical Earth. Two implementations are provided: a Spark ``Column``
expression (used inside joins/aggregations so distance math stays in
Catalyst) and a vectorised numpy version (used on the driver by the HAC
stage and in tests as an independent check).

Also provided: a geo-grid bucketing scheme that finds "all pairs within
eps metres" by comparing only neighbouring cells, and nearest-station
assignment against a small station table.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

EARTH_RADIUS_M = 6_371_000.0

#: Metres per degree of latitude (constant on a sphere).
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def haversine_col(lat1: Column, lon1: Column, lat2: Column, lon2: Column) -> Column:
    """Haversine distance in metres as a Spark SQL column expression (eq. 1).

    ``d = 2R asin(sqrt(sin^2(dphi/2) + cos(phi1) cos(phi2) sin^2(dlambda/2)))``
    """
    phi1, phi2 = F.radians(lat1), F.radians(lat2)
    dphi = F.radians(lat2 - lat1) / 2.0
    dlmb = F.radians(lon2 - lon1) / 2.0
    a = F.sin(dphi) ** 2 + F.cos(phi1) * F.cos(phi2) * F.sin(dlmb) ** 2
    # Clamp for numerical noise at antipodal/identical points.
    a = F.least(F.greatest(a, F.lit(0.0)), F.lit(1.0))
    return 2.0 * EARTH_RADIUS_M * F.asin(F.sqrt(a))


def haversine_np(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Vectorised numpy Haversine distance in metres (broadcasts)."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = np.radians(np.asarray(lat2) - np.asarray(lat1)) / 2.0
    dlmb = np.radians(np.asarray(lon2) - np.asarray(lon1)) / 2.0
    a = np.sin(dphi) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlmb) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def pairwise_haversine_np(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Full n x n Haversine distance matrix in metres (for small n)."""
    return haversine_np(lat[:, None], lon[:, None], lat[None, :], lon[None, :])


def cell_size_deg(eps_m: float, ref_lat_deg: float) -> tuple[float, float]:
    """Grid cell size (dlat, dlon) in degrees such that any two points
    within ``eps_m`` metres fall in the same or an adjacent cell.

    Longitude degrees shrink by cos(latitude); ``ref_lat_deg`` should be the
    highest-|latitude| point of the region of interest so the bound is safe.
    """
    dlat = eps_m / M_PER_DEG_LAT
    dlon = eps_m / (M_PER_DEG_LAT * math.cos(math.radians(ref_lat_deg)))
    return dlat, dlon


def grid_cells(lat: np.ndarray, lon: np.ndarray, *, eps_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer grid coordinates ``(cell_i, cell_j)`` of each point.

    Cell side is >= eps in both axes, so eps-neighbours are always in the
    same cell or one of the 8 adjacent cells — the basis of
    :func:`eps_pairs`. The longitude side is sized at 54°N, north of all
    of Dublin, so the bound holds there.
    """
    dlat, dlon = cell_size_deg(eps_m, ref_lat_deg=54.0)
    return np.floor(lat / dlat).astype(np.int64), np.floor(lon / dlon).astype(np.int64)


def eps_pairs(lat: np.ndarray, lon: np.ndarray, *, eps_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of all points within ``eps_m``
    metres of each other (:func:`haversine_np` distance), each unordered
    pair once.

    "All pairs within eps" as an equi-join on :func:`grid_cells`: each
    point is replicated to its 3x3 cell neighbourhood and joined with the
    points in their home cell, so only neighbouring cells are compared.
    """
    lat, lon = np.asarray(lat, float), np.asarray(lon, float)
    ci, cj = grid_cells(lat, lon, eps_m=eps_m)
    home = pd.DataFrame({"i": np.arange(len(lat)), "ci": ci, "cj": cj})
    nbrs = pd.concat(
        home.rename(columns={"i": "j"}).assign(ci=ci + di, cj=cj + dj)
        for di in (-1, 0, 1) for dj in (-1, 0, 1)
    )
    pairs = home.merge(nbrs, on=["ci", "cj"])
    i, j = pairs["i"].to_numpy(), pairs["j"].to_numpy()
    i, j = i[i < j], j[i < j]
    close = haversine_np(lat[i], lon[i], lat[j], lon[j]) <= eps_m
    return i[close], j[close]


def nearest_station(
    points: DataFrame,
    stations: DataFrame,
    *,
    out_col: str = "nearest_station_id",
) -> DataFrame:
    """Assign every point to its nearest station (Haversine argmin).

    ``points`` needs ``(location_id, lat, lon)``; ``stations`` needs
    ``(station_id, lat, lon)``. The station table is tiny (92–238 rows in
    the paper), so we explicitly broadcast it — the Spark session disables
    automatic broadcast to exercise shuffles elsewhere, but a 238-row
    dimension table is the textbook broadcast case.

    Returns ``points`` columns + ``out_col`` + ``<out_col>_dist_m``.
    Ties break on the smaller station id so the result is deterministic.
    """
    st = F.broadcast(
        stations.select(
            F.col("station_id").alias("__st_id"),
            F.col("lat").alias("__st_lat"),
            F.col("lon").alias("__st_lon"),
        )
    )
    d = haversine_col(F.col("lat"), F.col("lon"), F.col("__st_lat"), F.col("__st_lon"))
    joined = points.crossJoin(st).withColumn("__dist", d)
    best = joined.groupBy("location_id").agg(
        F.min(F.struct(F.col("__dist"), F.col("__st_id"))).alias("__best")
    )
    return (
        points.join(best, on="location_id")
        .withColumn(out_col, F.col("__best.__st_id"))
        .withColumn(f"{out_col}_dist_m", F.col("__best.__dist"))
        .drop("__best")
    )

