"""Community statistics (Tables IV-VI layout) and temporal profiles
(Figs 5/7 data) on hand-built inputs, cross-checked against DuckDB."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.analysis.communities import community_table, intra_community_share
from repro.analysis.temporal import day_profile, hour_profile
from repro.oracle import assert_equivalent


@pytest.fixture()
def frames(spark):
    assignment = spark.createDataFrame(
        pd.DataFrame({"group_id": ["A", "B", "C", "D"], "community": [0, 0, 1, 1]})
    )
    kinds = spark.createDataFrame(
        pd.DataFrame({"group_id": ["A", "B", "C", "D"], "is_new": [False, True, False, True]})
    )
    trips = spark.createDataFrame(
        pd.DataFrame(
            {
                "src_group": ["A", "A", "B", "C", "C", "D", "A", "C"],
                "dst_group": ["B", "A", "C", "D", "A", "C", "C", "B"],
                "day_of_week": [1, 2, 6, 7, 1, 3, 4, 5],
                "hour": [8, 9, 13, 21, 8, 17, 10, 11],
            }
        )
    )
    return assignment, kinds, trips


def test_community_table_hand_computed(frames):
    assignment, kinds, trips = frames
    rows = {r["community"]: r for r in community_table(assignment, kinds, trips).collect()}
    # community 0 = {A,B}: within = {A->B, A->A}; out = {B->C, A->C};
    # in = {C->A, C->B}
    c0, c1 = rows[0], rows[1]
    assert (c0["old_stations"], c0["new_stations"], c0["total_stations"]) == (1, 1, 2)
    assert (c0["trips_within"], c0["trips_out"], c0["trips_in"]) == (2, 2, 2)
    assert c0["trips_total"] == 6
    # community 1 = {C,D}: within = {C->D, D->C}; out = {C->A, C->B}
    assert (c1["trips_within"], c1["trips_out"], c1["trips_in"]) == (2, 2, 2)
    assert (c1["old_stations"], c1["new_stations"]) == (1, 1)


def test_community_table_oracle(frames):
    assignment, kinds, trips = frames
    got = community_table(assignment, kinds, trips).select(
        "community", "trips_within", "trips_out", "trips_in"
    )
    sql = """
    WITH t AS (
      SELECT a1.community AS c_src, a2.community AS c_dst FROM trips tr
      JOIN assign a1 ON tr.src_group = a1.group_id
      JOIN assign a2 ON tr.dst_group = a2.group_id
    ), communities AS (SELECT DISTINCT community FROM assign)
    SELECT c.community AS community,
      (SELECT COUNT(*) FROM t WHERE c_src = c.community AND c_dst = c.community) AS trips_within,
      (SELECT COUNT(*) FROM t WHERE c_src = c.community AND c_dst <> c.community) AS trips_out,
      (SELECT COUNT(*) FROM t WHERE c_dst = c.community AND c_src <> c.community) AS trips_in
    FROM communities c
    """
    assert_equivalent(got, sql, trips=trips.toPandas(), assign=assignment.toPandas())


def test_intra_share(frames):
    assignment, kinds, trips = frames
    table = community_table(assignment, kinds, trips)
    assert intra_community_share(table) == pytest.approx(4 / 8)


def test_community_table_totals_are_consistent(frames):
    assignment, kinds, trips = frames
    pdf = community_table(assignment, kinds, trips).toPandas()
    assert (pdf["old_stations"] + pdf["new_stations"] == pdf["total_stations"]).all()
    assert (
        pdf["trips_within"] + pdf["trips_out"] + pdf["trips_in"] == pdf["trips_total"]
    ).all()
    n_trips = trips.count()
    assert pdf["trips_within"].sum() + pdf["trips_out"].sum() == n_trips
    assert pdf["trips_out"].sum() == pdf["trips_in"].sum()


def test_day_profile_shares(frames):
    assignment, _, trips = frames
    pdf = day_profile(assignment, trips).toPandas()
    sums = pdf.groupby("community")["share"].sum()
    assert (abs(sums - 1.0) < 1e-9).all()
    # community 0 starts: A,A,B,A -> days 1,2,6,4 each share 1/4
    c0 = pdf[pdf.community == 0].set_index("day_of_week")["share"]
    assert c0.to_dict() == {1: 0.25, 2: 0.25, 4: 0.25, 6: 0.25}


def test_hour_profile_oracle(frames):
    assignment, _, trips = frames
    got = hour_profile(assignment, trips).select("community", "hour", F.col("n").alias("n"))
    sql = """
    SELECT a.community AS community, t.hour AS hour, COUNT(*) AS n
    FROM trips t JOIN assign a ON t.src_group = a.group_id
    GROUP BY 1, 2
    """
    assert_equivalent(got, sql, trips=trips.toPandas(), assign=assignment.toPandas())
