"""Unit tests for the property-graph layer (repro.graph.graph):
construction and symmetrisation."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.graph.graph import Graph, graph_from_edges


def _edges_df(spark, rows):
    return spark.createDataFrame(rows, "src long, dst long, weight double")


@pytest.fixture()
def small_graph(spark):
    # 1->2 (2.0), 2->1 (1.0), 2->3 (1.0), 3->3 loop (4.0), isolated 4
    e = _edges_df(spark, [(1, 2, 2.0), (2, 1, 1.0), (2, 3, 1.0), (3, 3, 4.0)])
    v = spark.createDataFrame([(1,), (2,), (3,), (4,)], "id long")
    return Graph(v, e)


def test_graph_requires_columns(spark):
    v = spark.createDataFrame([(1,)], "id long")
    bad = spark.createDataFrame([(1, 2)], "src long, dst long")  # no weight
    with pytest.raises(ValueError, match="weight"):
        Graph(v, bad)
    with pytest.raises(ValueError, match="'id'"):
        Graph(spark.createDataFrame([(1,)], "x long"), _edges_df(spark, [(1, 1, 1.0)]))


def test_graph_from_edges_vertex_set(spark):
    g = graph_from_edges(_edges_df(spark, [(1, 2, 1.0), (3, 3, 1.0)]))
    assert {r["id"] for r in g.vertices.collect()} == {1, 2, 3}
    assert g.edges.count() == 2


def test_graph_from_edges_defaults_weight(spark):
    df = spark.createDataFrame([(1, 2)], "src long, dst long")
    g = graph_from_edges(df)
    assert g.edges.collect()[0]["weight"] == 1.0


def test_symmetrize_non_loop_weights(small_graph):
    sym = small_graph.symmetrize()
    rows = {(r["src"], r["dst"]): r["weight"] for r in sym.edges.collect()}
    # 1-2 weights are summed over both directions: 3.0 each way
    assert rows[(1, 2)] == 3.0
    assert rows[(2, 1)] == 3.0
    assert rows[(2, 3)] == 1.0
    assert rows[(3, 2)] == 1.0
    assert rows[(3, 3)] == 4.0  # loop kept once
    assert len(rows) == 5


def test_symmetrize_total_mass(small_graph):
    """m = sum(non-loop)/2 + loops must equal the undirected total."""
    sym = small_graph.symmetrize()
    nonloop = sym.edges.filter(F.col("src") != F.col("dst")).agg(F.sum("weight")).collect()[0][0]
    loops = sym.edges.filter(F.col("src") == F.col("dst")).agg(F.sum("weight")).collect()[0][0]
    assert nonloop / 2 + loops == pytest.approx((2.0 + 1.0 + 1.0) + 4.0)
