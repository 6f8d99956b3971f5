"""Candidate-station construction (paper Section IV-A).

Pipeline:

1. **Pre-assignment** (driver) — the locations and the stations are
   collected once; any location within 50 m of a fixed station is
   assigned to that station's group (nearest wins,
   :func:`repro.geo.nearest_np`) and excluded from clustering; stations
   are immovable group centroids.
2. **eps decomposition** (driver) — the remaining ("free") locations are
   split into connected components of the 100 m proximity graph: a numpy
   grid finds the eps-pairs (:func:`repro.geo.eps_pairs`) and union-find
   joins them. Complete-linkage clusters with diameter <= 100 m are
   always subsets of such components, so this decomposition is
   *lossless*.
3. **Exact HAC** (driver) — complete-linkage clustering with the 100 m
   diameter cutoff runs per component, on its points in ``location_id``
   order, so labels do not depend on how Spark partitioned the input.
4. **Centroids** — each candidate cluster is represented by the mean of
   its member coordinates; station groups by the station coordinate.

Driver-side bound, for L locations, S stations and F free points in
eps-components of n_c points: memory O(L + C) plus O(block x S) for the
nearest-station kernel and O(n_c^2) for the distance matrix of the
component being clustered; time O(L.S + C + (F + E) log F + sum n_c^3).
The kernel compares every location with every station, the grid compares
the C pairs of points in neighbouring cells, E <= sum n_c^2 of them are
eps-pairs for the union-find, and sum n_c^3 is the complete linkage.
F is at most L.

Group ids: stations ``"S<station_id>"``, candidates ``"C<component>#<k>"``,
where ``<component>`` is the smallest ``location_id`` of the component.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.geo import eps_pairs, nearest_np
from repro.hac.linkage import complete_linkage_labels

PRE_ASSIGN_M = 50.0
MAX_DIAMETER_M = 100.0

ASSIGNMENT_SCHEMA = "location_id long, group_id string, kind string"
GROUPS_SCHEMA = "group_id string, kind string, lat double, lon double, station_id long"


@dataclass(frozen=True)
class CandidateResult:
    """``assignment``: (location_id, group_id, kind[station|candidate]);
    ``groups``: (group_id, kind, lat, lon, station_id nullable);
    ``component_sizes``: eps-component size -> number of components."""

    assignment: DataFrame
    groups: DataFrame
    component_sizes: dict[int, int]


def min_label_components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Connected components of the graph on vertices ``0..n-1`` with edges
    ``(i[k], j[k])``, by union-find with path halving; every union links
    the larger root under the smaller, so a vertex's label is the smallest
    vertex of its component. Time O((n + E) log n) for E edges."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(i.tolist(), j.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n)], dtype=np.int64)


def build_candidates(locations: DataFrame, stations: DataFrame) -> CandidateResult:
    """Group every cleaned location into a station group or a candidate
    cluster. ``locations``: (location_id, lat, lon); ``stations``:
    (location_id, lat, lon, station_id)."""
    spark = locations.sparkSession
    st = stations.select("station_id", "lat", "lon").toPandas()
    near = (
        locations.select("location_id", "lat", "lon")
        .toPandas()
        .sort_values("location_id", ignore_index=True)
    )
    near["ns"], near["ns_dist_m"] = nearest_np(
        near["lat"], near["lon"], st["station_id"], st["lat"], st["lon"]
    )
    at_station = near["ns_dist_m"] <= PRE_ASSIGN_M
    station_assigned = pd.DataFrame({
        "location_id": near["location_id"][at_station],
        "group_id": "S" + near["ns"][at_station].astype("int64").astype(str),
        "kind": "station",
    })

    free = near[~at_station].reset_index(drop=True)
    ids, lat, lon = (free[c].to_numpy() for c in ("location_id", "lat", "lon"))
    root = min_label_components(len(free), *eps_pairs(lat, lon, eps_m=MAX_DIAMETER_M))
    _, sizes = np.unique(root, return_counts=True)
    # Stable sort: each component's points stay in location_id order.
    order = np.argsort(root, kind="stable")
    k = np.empty(len(free), dtype=np.int64)
    for members in np.split(order, np.cumsum(sizes)[:-1]):
        k[members] = complete_linkage_labels(
            lat[members], lon[members], max_diameter_m=MAX_DIAMETER_M
        )
    free["group_id"] = [f"C{c}#{l}" for c, l in zip(ids[root], k)]
    free["kind"] = "candidate"

    # localCheckpoint: materialise both frames once on the executors;
    # downstream stages read them many times inside further joins.
    assignment = spark.createDataFrame(
        pd.concat([station_assigned, free[["location_id", "group_id", "kind"]]]),
        ASSIGNMENT_SCHEMA,
    ).localCheckpoint()

    st_groups = pd.DataFrame({
        "group_id": "S" + st["station_id"].astype("int64").astype(str),
        "kind": "station", "lat": st["lat"], "lon": st["lon"],
        "station_id": st["station_id"],
    })
    cand_groups = (
        free.groupby(["group_id", "kind"], as_index=False)[["lat", "lon"]].mean()
        .assign(station_id=None)
    )
    groups = spark.createDataFrame(
        pd.concat([st_groups, cand_groups]), GROUPS_SCHEMA
    ).localCheckpoint()
    size, count = np.unique(sizes, return_counts=True)
    return CandidateResult(
        assignment=assignment, groups=groups,
        component_sizes=dict(zip(size.tolist(), count.tolist())),
    )
