"""End-to-end pipeline invariants on the shared SF=0.05 run.

Paper-scale shape (3/7/10 communities etc.) is recorded at SF=1 in
EXPERIMENTS.md; here we assert the structural invariants that must hold at
any scale, and check the Table II/III counts against DuckDB.
"""
from __future__ import annotations

import dataclasses

import pytest
from pyspark.sql import functions as F

from repro import tables
from repro.graph.builder import GRANULARITIES, graph_stats
from repro.oracle import assert_equivalent
from repro.stations.selection import select_stations


def test_trips_conserved_through_every_stage(pipeline_small):
    r = pipeline_small
    n = r.cleaned.clean_rentals
    assert r.candidate_stats.n_trips == n
    assert r.candidate_trips.count() == n
    assert r.selected_trips.count() == n


def test_candidate_stats_internal_consistency(pipeline_small):
    s = pipeline_small.candidate_stats
    assert s.directed_edges >= s.undirected_edges
    assert s.undirected_edges >= s.undirected_edges_no_loops
    assert s.directed_edges - s.directed_edges_no_loops == (
        s.undirected_edges - s.undirected_edges_no_loops
    )  # loop pairs are counted once in both views
    assert s.directed_edges <= 2 * s.undirected_edges_no_loops + (
        s.undirected_edges - s.undirected_edges_no_loops
    )
    assert s.n_nodes <= 92 + pipeline_small.data.config.n_hotspots


def test_candidate_groups_cover_all_locations(pipeline_small):
    r = pipeline_small
    assert r.candidates.assignment.count() == r.cleaned.clean_locations
    # every assigned group exists in the groups table
    missing = r.candidates.assignment.join(
        r.candidates.groups.select("group_id"), "group_id", "left_anti"
    )
    assert missing.count() == 0


def test_station_groups_are_92(pipeline_small):
    st = pipeline_small.candidates.groups.filter(F.col("kind") == "station")
    assert st.count() == 92


def test_selection_threshold_is_min_station_degree(pipeline_small):
    from repro.stations.selection import group_degrees

    r = pipeline_small
    deg = group_degrees(r.candidate_trips)
    st_deg = (
        r.candidates.groups.filter(F.col("kind") == "station")
        .join(deg, "group_id", "left")
        .fillna({"degree": 0.0})
        .agg(F.min("degree"))
        .collect()[0][0]
    )
    assert r.selection.threshold == st_deg


def test_selection_is_deterministic(pipeline_small):
    """Algorithm 1 re-run on the pipeline's own inputs selects the same
    stations and maps every location the same way."""
    r = pipeline_small
    again = select_stations(
        r.candidates.groups, r.candidate_trips,
        r.cleaned.locations, r.candidates.assignment,
    )

    def rows(df):
        return {tuple(row) for row in df.collect()}

    assert again.threshold == r.selection.threshold
    assert rows(again.selected.select("group_id")) == rows(
        r.selection.selected.select("group_id")
    )
    cols = ("location_id", "station_group", "is_new")
    assert rows(again.final_assignment.select(*cols)) == rows(
        r.selection.final_assignment.select(*cols)
    )


def test_graph_stats_oracle(spark, pipeline_small):
    """Table II counts of the candidate graph against SQL over its trips."""
    trips = pipeline_small.candidate_trips.select("src_group", "dst_group")
    got = spark.createDataFrame([dataclasses.asdict(graph_stats(trips))])
    sql = """
    WITH pairs AS (SELECT DISTINCT src_group AS s, dst_group AS d FROM trips),
    und AS (SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b FROM pairs)
    SELECT
      (SELECT COUNT(*) FROM (SELECT src_group FROM trips
                             UNION SELECT dst_group FROM trips)) AS n_nodes,
      (SELECT COUNT(*) FROM und) AS undirected_edges,
      (SELECT COUNT(*) FROM und WHERE a <> b) AS undirected_edges_no_loops,
      (SELECT COUNT(*) FROM pairs) AS directed_edges,
      (SELECT COUNT(*) FROM pairs WHERE s <> d) AS directed_edges_no_loops,
      (SELECT COUNT(*) FROM trips) AS n_trips
    """
    assert_equivalent(got, sql, trips=trips)


def test_table3_oracle(spark, pipeline_small):
    """Table III's old/new split against SQL over the selected trips and
    the station kinds (the total row is checked in test_tables)."""
    r = pipeline_small
    pdf = tables.table3(r)
    got = spark.createDataFrame(pdf[pdf["kind"] != "total"])
    sql = """
    WITH t AS (
      SELECT tr.src_group, tr.dst_group, ks.is_new AS src_new, kd.is_new AS dst_new
      FROM trips tr
      JOIN kinds ks ON tr.src_group = ks.group_id
      JOIN kinds kd ON tr.dst_group = kd.group_id
    ), e AS (SELECT DISTINCT * FROM t),
    k AS (SELECT * FROM (VALUES ('pre-existing', false), ('selected', true)) v(kind, is_new))
    SELECT k.kind AS kind,
      (SELECT COUNT(*) FROM kinds WHERE is_new = k.is_new) AS stations,
      (SELECT COUNT(*) FROM t WHERE src_new = k.is_new) AS trips_from,
      (SELECT COUNT(*) FROM t WHERE dst_new = k.is_new) AS trips_to,
      (SELECT COUNT(*) FROM e WHERE src_new = k.is_new) AS edges_from,
      (SELECT COUNT(*) FROM e WHERE dst_new = k.is_new) AS edges_to
    FROM k
    """
    assert_equivalent(
        got, sql,
        trips=r.selected_trips.select("src_group", "dst_group"),
        kinds=r.station_kinds,
    )


def test_selected_are_far_from_stations_and_each_other(pipeline_small):
    import numpy as np

    from repro.geo import haversine_np

    r = pipeline_small
    sel = r.selection.selected.toPandas()
    st = r.cleaned.stations.toPandas()
    if len(sel) == 0:
        pytest.skip("no stations selected at this scale")
    d_st = haversine_np(
        sel.lat.to_numpy()[:, None], sel.lon.to_numpy()[:, None],
        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :],
    )
    assert d_st.min() >= 250.0
    d_self = haversine_np(
        sel.lat.to_numpy()[:, None], sel.lon.to_numpy()[:, None],
        sel.lat.to_numpy()[None, :], sel.lon.to_numpy()[None, :],
    )
    np.fill_diagonal(d_self, np.inf)
    assert d_self.min() >= 250.0


def test_final_assignment_covers_all_locations_once(pipeline_small):
    r = pipeline_small
    fa = r.selection.final_assignment
    assert fa.count() == r.cleaned.clean_locations
    assert fa.select("location_id").distinct().count() == r.cleaned.clean_locations


def test_final_stations_are_old_plus_selected(pipeline_small):
    r = pipeline_small
    kinds = r.station_kinds.toPandas()
    assert (~kinds.is_new).sum() <= 92  # a station with no trips never appears
    assert kinds.is_new.sum() <= r.selection.n_selected
    assert kinds.group_id.is_unique


@pytest.mark.parametrize("gran", GRANULARITIES)
def test_community_run_invariants(pipeline_small, gran):
    run = pipeline_small.communities[gran]
    assert -1.0 <= run.modularity <= 1.0
    assert run.n_communities >= 1
    assert 0.0 <= run.intra_share <= 1.0
    pdf = run.table.toPandas()
    assert (pdf.old_stations + pdf.new_stations == pdf.total_stations).all()
    assert (pdf.trips_within + pdf.trips_out + pdf.trips_in == pdf.trips_total).all()
    assert pdf.trips_out.sum() == pdf.trips_in.sum()
    n = pipeline_small.selected_trips.count()
    assert pdf.trips_within.sum() + pdf.trips_out.sum() == n
    assert len(pdf) == run.n_communities


@pytest.mark.parametrize("gran", GRANULARITIES)
def test_assignment_covers_every_active_station(pipeline_small, gran):
    run = pipeline_small.communities[gran]
    missing = pipeline_small.station_kinds.join(
        run.assignment, "group_id", "left_anti"
    )
    assert missing.count() == 0


def test_intra_share_matches_table(pipeline_small):
    run = pipeline_small.communities["basic"]
    pdf = run.table.toPandas()
    total = pdf.trips_within.sum() + pdf.trips_out.sum()
    assert run.intra_share == pytest.approx(pdf.trips_within.sum() / total)


def test_finer_granularity_does_not_reduce_communities(pipeline_small):
    """The paper's headline shape: temporal granularity reveals finer
    structure. At any scale, hour must be at least as fine as basic."""
    ks = {g: pipeline_small.communities[g].n_communities for g in GRANULARITIES}
    assert ks["hour"] >= ks["basic"]
    assert ks["day"] >= ks["basic"]
