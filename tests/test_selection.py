"""Algorithm 1 (station ranking & selection): degree threshold, 250 m
rules, greedy suppression, trip-conserving reassignment, the funnel,
degenerate inputs and the Spark job count."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.geo import haversine_np
from repro.oracle import assert_equivalent
from repro.stations.selection import _suppress, group_degrees, select_stations

LAT0, LON0 = 53.34, -6.27
DEG_PER_M_LAT = 1 / 111_194.9


def _pt(dx_m, dy_m):
    """Offset from (LAT0, LON0) in metres east/north."""
    return (
        LAT0 + dy_m * DEG_PER_M_LAT,
        LON0 + dx_m * DEG_PER_M_LAT / np.cos(np.radians(LAT0)),
    )


def _groups_df(spark, rows):
    pdf = pd.DataFrame(rows, columns=["group_id", "kind", "lat", "lon", "station_id"])
    pdf["station_id"] = pdf["station_id"].astype("float64")
    return spark.createDataFrame(pdf)


def _trips_df(spark, pairs):
    pdf = pd.DataFrame(pairs, columns=["src_group", "dst_group"])
    return spark.createDataFrame(pdf)


def test_group_degrees_counts_both_endpoints(spark):
    trips = _trips_df(spark, [("A", "B"), ("B", "A"), ("A", "A")])
    d = {r["group_id"]: r["degree"] for r in group_degrees(trips).collect()}
    assert d == {"A": 4.0, "B": 2.0}  # self trip counts twice


def test_group_degrees_oracle(spark):
    trips = _trips_df(spark, [("A", "B"), ("B", "C"), ("C", "C")])
    got = group_degrees(trips).select("group_id", F.col("degree").alias("deg"))
    sql = """
    SELECT group_id, CAST(COUNT(*) AS DOUBLE) AS deg FROM (
      SELECT src_group AS group_id FROM trips
      UNION ALL SELECT dst_group FROM trips
    ) GROUP BY group_id
    """
    assert_equivalent(got, sql, trips=trips.toPandas())


# --- the greedy suppression loop ---------------------------------------

def _cand_pdf(points, degrees):
    return pd.DataFrame(
        {
            "group_id": [f"C{i}" for i in range(len(points))],
            "lat": [p[0] for p in points],
            "lon": [p[1] for p in points],
            "degree": degrees,
        }
    )


def test_suppress_keeps_isolated():
    pts = [_pt(0, 0), _pt(1000, 0), _pt(0, 1000)]
    keep = _suppress(_cand_pdf(pts, [5.0, 4.0, 3.0]), 250.0)
    assert keep.all()


def test_suppress_drops_lower_degree_of_close_pair():
    pts = [_pt(0, 0), _pt(100, 0)]
    keep = _suppress(_cand_pdf(pts, [5.0, 9.0]), 250.0)
    assert list(keep) == [False, True]


def test_suppress_chain_is_greedy_by_degree():
    # three in a 200m line with degrees 1, 9, 1: middle wins, both ends die
    pts = [_pt(0, 0), _pt(200, 0), _pt(400, 0)]
    keep = _suppress(_cand_pdf(pts, [1.0, 9.0, 1.0]), 250.0)
    assert list(keep) == [False, True, False]
    # but with the middle weakest, both ends survive (400m apart)
    keep = _suppress(_cand_pdf(pts, [9.0, 1.0, 8.0]), 250.0)
    assert list(keep) == [True, False, True]


def test_suppress_tie_breaks_on_group_id():
    pts = [_pt(0, 0), _pt(100, 0)]
    keep = _suppress(_cand_pdf(pts, [5.0, 5.0]), 250.0)
    assert list(keep) == [True, False]  # C0 < C1


@pytest.mark.parametrize("seed", range(4))
def test_suppress_invariants_random(seed):
    rng = np.random.default_rng(seed)
    pts = [_pt(float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000))) for _ in range(40)]
    pdf = _cand_pdf(pts, rng.integers(1, 50, 40).astype(float))
    keep = _suppress(pdf, 250.0)
    lat, lon = pdf.lat.to_numpy(), pdf.lon.to_numpy()
    kept = np.where(keep)[0]
    # invariant 1: no two kept candidates within 250 m
    d = haversine_np(lat[kept][:, None], lon[kept][:, None], lat[kept][None, :], lon[kept][None, :])
    np.fill_diagonal(d, np.inf)
    assert (d >= 250.0).all()
    # invariant 2 (maximality): every dropped candidate is within 250 m of
    # a kept candidate with >= degree (ties by id)
    deg = pdf.degree.to_numpy()
    for i in np.where(~keep)[0]:
        dd = haversine_np(lat[i], lon[i], lat[kept], lon[kept])
        near = kept[dd < 250.0]
        assert len(near) > 0
        assert any(
            (deg[j] > deg[i]) or (deg[j] == deg[i] and pdf.group_id[j] < pdf.group_id[i])
            for j in near
        )


# --- end-to-end select_stations ----------------------------------------

@pytest.fixture()
def scenario(spark):
    """Two stations + four candidates exercising every rule:

    - C_low: high distance but degree below threshold -> rejected (rule 3)
    - C_near: strong degree but 200 m from S1 -> rejected (rule 4)
    - C_a, C_b: strong, far from stations, but 200 m apart -> C_a wins
    """
    s1, s2 = _pt(0, 0), _pt(2000, 0)
    c_low, c_near = _pt(0, 800), _pt(200, 0)
    c_a, c_b = _pt(1000, 1000), _pt(1200, 1000)
    groups = _groups_df(
        spark,
        [
            ("S1", "station", *s1, 1), ("S2", "station", *s2, 2),
            ("Clow", "candidate", *c_low, None), ("Cnear", "candidate", *c_near, None),
            ("Ca", "candidate", *c_a, None), ("Cb", "candidate", *c_b, None),
        ],
    )
    # degrees: S1=4, S2=6 (threshold 4); Clow=2; Cnear=5; Ca=9; Cb=4
    trips = _trips_df(
        spark,
        [("S1", "S2")] * 2 + [("S2", "S1")] * 2
        + [("Clow", "S2")] * 2
        + [("Cnear", "Ca")] * 3 + [("Ca", "Cnear")] * 2
        + [("Cb", "Ca")] * 2 + [("Ca", "Cb")] * 2,
    )
    # locations: one per group at the group coordinate
    locs = spark.createDataFrame(
        pd.DataFrame(
            {
                "location_id": [1, 2, 3, 4, 5, 6],
                "lat": [s1[0], s2[0], c_low[0], c_near[0], c_a[0], c_b[0]],
                "lon": [s1[1], s2[1], c_low[1], c_near[1], c_a[1], c_b[1]],
            }
        )
    )
    assignment = spark.createDataFrame(
        pd.DataFrame(
            {
                "location_id": [1, 2, 3, 4, 5, 6],
                "group_id": ["S1", "S2", "Clow", "Cnear", "Ca", "Cb"],
                "kind": ["station", "station"] + ["candidate"] * 4,
            }
        )
    )
    return groups, trips, locs, assignment


def test_select_stations_applies_all_rules(scenario):
    groups, trips, locs, assignment = scenario
    res = select_stations(groups, trips, locs, assignment)
    assert res.threshold == 4.0
    selected = {r["group_id"] for r in res.selected.collect()}
    assert selected == {"Ca"}
    # Clow fails rule 3, Cnear rule 4, Cb the suppression.
    assert list(res.funnel.values()) == [4, 3, 2, 1]


def test_select_stations_reassigns_orphans_to_nearest(scenario):
    groups, trips, locs, assignment = scenario
    res = select_stations(groups, trips, locs, assignment)
    fa = {r["location_id"]: (r["station_group"], r["is_new"]) for r in res.final_assignment.collect()}
    assert fa[1] == ("S1", False) and fa[2] == ("S2", False)
    assert fa[5] == ("Ca", True)
    assert fa[3] == ("S1", False)  # Clow 800m from S1, nearer than S2/Ca
    assert fa[4] == ("S1", False)  # Cnear 200m from S1
    assert fa[6] == ("Ca", True)  # Cb 200m from Ca
    # every location still mapped exactly once: trips conserved
    assert len(fa) == 6


def test_no_candidate_survives(spark, scenario):
    """Every candidate below the threshold: no new station, and every
    location of a candidate goes to its nearest old station."""
    groups, _, locs, assignment = scenario
    trips = _trips_df(spark, [("S1", "S2")] * 20 + [("Ca", "Cb")] * 2)
    res = select_stations(groups, trips, locs, assignment)
    assert res.threshold == 20.0
    assert res.selected.count() == 0 and res.n_selected == 0
    assert list(res.funnel.values()) == [4, 0, 0, 0]
    assert set(res.stations["group_id"]) == {"S1", "S2"}
    fa = res.final_assignment.toPandas().sort_values("location_id")
    assert fa["location_id"].tolist() == [1, 2, 3, 4, 5, 6]
    assert not fa["is_new"].any()
    loc = locs.toPandas().sort_values("location_id")
    st = groups.toPandas().query("kind == 'station'")
    d = haversine_np(loc.lat.to_numpy()[:, None], loc.lon.to_numpy()[:, None],
                     st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :])
    assert fa["station_group"].tolist() == st.group_id.to_numpy()[d.argmin(axis=1)].tolist()


def test_no_stations_raises(spark, scenario):
    """Without stations there is no threshold and nowhere to reassign
    orphaned locations: fail loudly instead of dropping them."""
    groups, trips, locs, assignment = scenario
    with pytest.raises(ValueError, match="no stations"):
        select_stations(groups.filter(F.col("kind") == "candidate"), trips, locs, assignment)


# --- on the pipeline's own inputs (SF=0.05) ------------------------------

def test_funnel_on_pipeline(pipeline_small):
    """The Algorithm 1 funnel starts at the HAC candidates, never grows,
    and ends at the selected stations."""
    r = pipeline_small
    counts = list(r.selection.funnel.values())
    assert len(counts) == 4
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == r.candidates.groups.filter(F.col("kind") == "candidate").count()
    assert counts[-1] == r.selection.n_selected == r.selection.selected.count()


def test_select_stations_job_count(spark, pipeline_small):
    """Only the two collects (groups with degrees, locations with their
    groups) and the final checkpoint run Spark jobs."""
    r = pipeline_small
    sc = spark.sparkContext
    group = "test_select_stations_job_count"
    sc.setJobGroup(group, group)
    try:
        select_stations(
            r.candidates.groups, r.candidate_trips,
            r.cleaned.locations, r.candidates.assignment,
        )
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 8
