"""End-to-end HAC candidate construction on constructed geometries:
50 m pre-assignment, eps-component decomposition, exact per-component
complete linkage, centroid computation, degenerate inputs and the Spark
job count."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.geo import haversine_np
from repro.hac.cluster import build_candidates

LAT0, LON0 = 53.34, -6.27
DEG_PER_M_LAT = 1 / 111_194.9


def _pt(dx_m, dy_m):
    return (
        LAT0 + dy_m * DEG_PER_M_LAT,
        LON0 + dx_m * DEG_PER_M_LAT / np.cos(np.radians(LAT0)),
    )


def _frames(spark, pts, station_pts, partitions=None, seed=0):
    """Spark (locations, stations) from (dx, dy) metre offsets; locations
    are shuffled and, if ``partitions`` is set, repartitioned."""
    loc = pd.DataFrame([_pt(*p) for p in pts], columns=["lat", "lon"])
    loc.insert(0, "location_id", range(1, len(pts) + 1))
    locations = spark.createDataFrame(
        loc.sample(frac=1.0, random_state=seed), "location_id long, lat double, lon double"
    )
    if partitions:
        locations = locations.repartition(partitions)
    st = pd.DataFrame([_pt(*p) for p in station_pts], columns=["lat", "lon"])
    st.insert(0, "station_id", range(7, 7 + len(station_pts)))
    return locations, spark.createDataFrame(st)


@pytest.fixture()
def scene(spark):
    """One station (id 7); location 1 30 m from it (pre-assigned); a
    tight cloud of 3 points ~40 m across 500 m away (one candidate
    cluster); two points 150 m apart (> 100 m: separate components and
    separate clusters)."""
    return _frames(
        spark, [(30, 0), (500, 0), (520, 0), (510, 25), (-600, 0), (-750, 0)], [(0, 0)]
    )


def test_preassignment_and_clusters(scene):
    locations, stations = scene
    res = build_candidates(locations, stations)
    a = {r["location_id"]: (r["group_id"], r["kind"]) for r in res.assignment.collect()}
    assert a[1] == ("S7", "station")  # within 50 m of the station
    # the 3-point cloud is one candidate cluster
    assert a[2][1] == "candidate"
    assert a[2][0] == a[3][0] == a[4][0]
    # the 150 m pair are two distinct clusters
    assert a[5][0] != a[6][0]
    assert a[5][1] == a[6][1] == "candidate"
    # cloud cluster differs from pair clusters
    assert a[2][0] not in (a[5][0], a[6][0])


def test_every_location_assigned_exactly_once(scene):
    locations, stations = scene
    res = build_candidates(locations, stations)
    assert res.assignment.count() == locations.count()
    assert res.assignment.select("location_id").distinct().count() == locations.count()


def test_groups_table_contents(scene):
    locations, stations = scene
    res = build_candidates(locations, stations)
    groups = res.groups.collect()
    kinds = {r["group_id"]: r["kind"] for r in groups}
    assert kinds["S7"] == "station"
    assert sum(1 for k in kinds.values() if k == "candidate") == 3
    # station group keeps the station's own coordinate
    srow = [r for r in groups if r["group_id"] == "S7"][0]
    assert (srow["lat"], srow["lon"]) == pytest.approx((LAT0, LON0))
    assert srow["station_id"] == 7


def test_candidate_centroid_is_member_mean(scene, spark):
    locations, stations = scene
    res = build_candidates(locations, stations)
    a = {r["location_id"]: r["group_id"] for r in res.assignment.collect()}
    cloud_gid = a[2]
    loc_pdf = locations.toPandas().set_index("location_id")
    expected_lat = loc_pdf.loc[[2, 3, 4], "lat"].mean()
    expected_lon = loc_pdf.loc[[2, 3, 4], "lon"].mean()
    row = [r for r in res.groups.collect() if r["group_id"] == cloud_gid][0]
    assert row["lat"] == pytest.approx(expected_lat)
    assert row["lon"] == pytest.approx(expected_lon)


def test_cluster_diameter_rule_on_generated_data(spark, cleaned_small):
    """Paper Rule 1 on real generated data: no two members of any
    candidate cluster are more than 100 m apart."""
    from repro.hac.cluster import build_candidates

    res = build_candidates(cleaned_small.locations, cleaned_small.stations)
    pdf = (
        res.assignment.filter(F.col("kind") == "candidate")
        .join(cleaned_small.locations.select("location_id", "lat", "lon"), "location_id")
        .toPandas()
    )
    for gid, grp in pdf.groupby("group_id"):
        if len(grp) > 1:
            d = haversine_np(
                grp.lat.to_numpy()[:, None], grp.lon.to_numpy()[:, None],
                grp.lat.to_numpy()[None, :], grp.lon.to_numpy()[None, :],
            )
            assert d.max() <= 100.0 + 1e-6, gid


def test_preassign_rule_on_generated_data(spark, cleaned_small):
    """Every location within 50 m of a station is station-assigned, and
    every candidate-assigned location is > 50 m from all stations."""
    res = build_candidates(cleaned_small.locations, cleaned_small.stations)
    loc = cleaned_small.locations.toPandas()
    st = cleaned_small.stations.toPandas()
    d = haversine_np(
        loc.lat.to_numpy()[:, None], loc.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    ).min(axis=1)
    kind = res.assignment.toPandas().set_index("location_id")["kind"]
    expected = np.where(d <= 50.0, "station", "candidate")
    np.testing.assert_array_equal(kind.loc[loc.location_id].to_numpy(), expected)


def _assignment(res):
    return sorted(tuple(r) for r in res.assignment.collect())


def _assert_schemas(res):
    assert res.assignment.schema.simpleString() == (
        "struct<location_id:bigint,group_id:string,kind:string>"
    )
    assert res.groups.schema.simpleString() == (
        "struct<group_id:string,kind:string,lat:double,lon:double,station_id:bigint>"
    )


def test_assignment_independent_of_input_order(spark):
    """Cluster labels k follow location_id order, not the order rows
    arrive in: a chain 60 m apart is one eps-component that complete
    linkage splits into several clusters."""
    chain = [(1000 + 60 * t, 0) for t in range(7)] + [(1000 + 60 * t, 70) for t in range(7)]
    runs = [
        _assignment(build_candidates(*_frames(spark, chain, [(0, 0)], parts, seed)))
        for parts, seed in ((1, 0), (7, 1), (3, 2))
    ]
    assert runs[0] == runs[1] == runs[2]
    groups = {g for _, g, _ in runs[0]}
    assert len({g.split("#")[0] for g in groups}) == 1  # one component
    assert len(groups) >= 2  # ... split into several clusters


def test_no_free_points(spark):
    """Every location within 50 m of a station: no candidates, and
    well-formed frames."""
    res = build_candidates(*_frames(spark, [(10, 0), (0, 20), (-30, -30)], [(0, 0)]))
    _assert_schemas(res)
    assert _assignment(res) == [(i, "S7", "station") for i in (1, 2, 3)]
    assert [r["group_id"] for r in res.groups.collect()] == ["S7"]
    assert res.component_sizes == {}


def test_one_free_point(spark):
    res = build_candidates(*_frames(spark, [(10, 0), (500, 0)], [(0, 0)]))
    _assert_schemas(res)
    assert _assignment(res) == [(1, "S7", "station"), (2, "C2#0", "candidate")]
    groups = {r["group_id"]: r for r in res.groups.collect()}
    assert set(groups) == {"S7", "C2#0"}
    assert groups["C2#0"]["station_id"] is None
    assert (groups["C2#0"]["lat"], groups["C2#0"]["lon"]) == pytest.approx(_pt(500, 0))
    assert res.component_sizes == {1: 1}


def test_component_sizes_histogram(spark, cleaned_small):
    """The sizes of the eps-components sum to the free-point count, and
    their number is the number of distinct candidate components."""
    res = build_candidates(cleaned_small.locations, cleaned_small.stations)
    cand = res.assignment.filter(F.col("kind") == "candidate").toPandas()
    sizes = res.component_sizes
    assert sum(size * count for size, count in sizes.items()) == len(cand)
    assert sum(sizes.values()) == cand["group_id"].str.split("#").str[0].nunique()


def test_no_stations_raises(spark):
    """Without stations no location has a nearest station: fail loudly
    instead of dropping every location."""
    locations, stations = _frames(spark, [(10, 0), (500, 0)], [(0, 0)])
    with pytest.raises(ValueError, match="no stations"):
        build_candidates(locations, stations.limit(0))


def test_build_candidates_job_count(spark, cleaned_small):
    """Only the two collects and the two checkpoints run Spark jobs."""
    sc = spark.sparkContext
    group = "test_build_candidates_job_count"
    sc.setJobGroup(group, group)
    try:
        build_candidates(cleaned_small.locations, cleaned_small.stations)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 5
