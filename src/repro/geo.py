"""Geospatial primitives shared by every stage of the pipeline.

The paper (eq. 1) measures all distances with the Haversine formula on a
spherical Earth, here vectorised in numpy: every distance of the pipeline
is computed on the driver, where the HAC and Algorithm 1 stages hold
their (small) point and station tables.

Also provided: a geo-grid bucketing scheme that finds "all pairs within
eps metres" by comparing only neighbouring cells, and nearest-station
assignment against a small station table.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

EARTH_RADIUS_M = 6_371_000.0

#: Metres per degree of latitude (constant on a sphere).
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

#: Points per block of :func:`nearest_np`: the driver holds one
#: block x stations distance matrix at a time, never points x stations.
NEAREST_BLOCK = 256


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


def nearest_np(
    lat: np.ndarray, lon: np.ndarray,
    st_id: np.ndarray, st_lat: np.ndarray, st_lon: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest station of every point (Haversine argmin): ``(ids, dist_m)``,
    the station id and the distance in metres, one per point.

    Exact ties go to the smaller station id (lexicographic for string
    ids): the stations are sorted by id and the argmin takes the first
    minimum. Points are processed in blocks of :data:`NEAREST_BLOCK`.
    Raises ``ValueError`` when there is no station, as a point then has
    no nearest station.
    """
    st_id = np.asarray(st_id)
    if len(st_id) == 0:
        raise ValueError("no stations: cannot assign points to a nearest station")
    order = np.argsort(st_id, kind="stable")
    st_id = st_id[order]
    st_lat = np.asarray(st_lat, float)[order][None, :]
    st_lon = np.asarray(st_lon, float)[order][None, :]
    lat, lon = np.asarray(lat, float), np.asarray(lon, float)
    best = np.empty(len(lat), dtype=np.int64)
    dist = np.empty(len(lat))
    for s in range(0, len(lat), NEAREST_BLOCK):
        block = slice(s, s + NEAREST_BLOCK)
        d = haversine_np(lat[block, None], lon[block, None], st_lat, st_lon)
        best[block] = d.argmin(axis=1)
        dist[block] = d[np.arange(len(d)), best[block]]
    return st_id[best], dist
