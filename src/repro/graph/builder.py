"""Build the paper's trip graphs from rentals + a location->group map.

- :func:`trips_with_groups` resolves both rental endpoints to group ids and
  attaches the temporal features (ISO day-of-week 1..7, start hour 0..23).
- :func:`graph_stats` computes the Table II measures of a trip set.
- :func:`temporal_graph` aggregates trips into a weighted station graph at
  one of the paper's three granularities:

  * ``"basic"`` — weight = number of trips (G_Basic);
  * ``"day"``   — weight = sum of day-of-week codes 1..7 (G_Day);
  * ``"hour"``  — weight = sum of (start hour + 1) codes 1..24 (G_Hour).

  The temporal weightings are the documented interpretation of the paper's
  "each trip is a unique edge with a day/hour property" + "Louvain ...
  ability to incorporate weighted edges": Neo4j GDS Louvain consumes one
  scalar relationship weight, and summing the per-trip temporal code over
  parallel edges is the aggregation its multigraph projection performs.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.graph import Graph, graph_from_edges

GRANULARITIES = ("basic", "day", "hour")


def trips_with_groups(rentals: DataFrame, assignment: DataFrame) -> DataFrame:
    """Resolve rentals to ``(src_group, dst_group, day_of_week, hour)``.

    ``assignment`` maps location_id -> group_id. Rentals referencing an
    unmapped location are dropped (cleaning guarantees there are none).
    """
    a = assignment.select("location_id", "group_id")
    out = (
        rentals.select(
            "rental_id",
            F.col("rental_location_id").cast("long").alias("rental_location_id"),
            F.col("return_location_id").cast("long").alias("return_location_id"),
            "start_time",
        )
        .join(
            a.select(
                F.col("location_id").alias("rental_location_id"),
                F.col("group_id").alias("src_group"),
            ),
            "rental_location_id",
        )
        .join(
            a.select(
                F.col("location_id").alias("return_location_id"),
                F.col("group_id").alias("dst_group"),
            ),
            "return_location_id",
        )
    )
    return out.select(
        "rental_id", "src_group", "dst_group",
        F.dayofweek(F.col("start_time")).alias("__dow_sun1"),
        F.hour(F.col("start_time")).alias("hour"),
    ).withColumn(
        # ISO day-of-week: Monday=1 .. Sunday=7
        "day_of_week",
        ((F.col("__dow_sun1") + 5) % 7 + 1).cast("int"),
    ).drop("__dow_sun1")


@dataclass(frozen=True)
class GraphStats:
    """The measures of Table II for one trip set."""

    n_nodes: int
    undirected_edges: int
    undirected_edges_no_loops: int
    directed_edges: int
    directed_edges_no_loops: int
    n_trips: int


def graph_stats(trips: DataFrame) -> GraphStats:
    """Count nodes/edges/trips of the (multi)graph induced by ``trips``
    (columns ``src_group``/``dst_group``), with and without self-loops.

    Edges and trips come from one aggregation over the directed pair
    table. A loop pair ``(a, a)`` is one edge in both the directed and the
    undirected view, so one loop count serves both "no loops" measures.
    """
    src, dst = F.col("src_group"), F.col("dst_group")
    e = (
        trips.groupBy(src, dst)
        .agg(F.count(F.lit(1)).alias("trips"))
        .agg(
            F.count(F.lit(1)).alias("directed"),
            F.count_if(src == dst).alias("loops"),
            F.count_distinct(F.least(src, dst), F.greatest(src, dst)).alias("undirected"),
            F.sum("trips").alias("trips"),
        )
        .collect()[0]
    )
    nodes = (
        trips.select(src.alias("g")).unionByName(trips.select(dst.alias("g")))
        .distinct()
        .count()
    )
    return GraphStats(
        n_nodes=nodes,
        undirected_edges=e["undirected"],
        undirected_edges_no_loops=e["undirected"] - e["loops"],
        directed_edges=e["directed"],
        directed_edges_no_loops=e["directed"] - e["loops"],
        n_trips=e["trips"] or 0,
    )


def temporal_graph(trips: DataFrame, granularity: str) -> Graph:
    """The symmetric weighted station graph at one temporal granularity
    (see module docstring). Node ids are group ids (strings)."""
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}")
    if granularity == "basic":
        w = F.lit(1.0)
    elif granularity == "day":
        w = F.col("day_of_week").cast("double")
    else:
        w = (F.col("hour") + F.lit(1)).cast("double")
    # Each trip contributes its temporal code to the *undirected* pair —
    # the paper's graphs are bidirectional, so aggregate per unordered pair
    # then symmetrize.
    und = (
        trips.select(
            F.least("src_group", "dst_group").alias("src"),
            F.greatest("src_group", "dst_group").alias("dst"),
            w.alias("weight"),
        )
        .groupBy("src", "dst")
        .agg(F.sum("weight").alias("weight"))
    )
    return graph_from_edges(und).symmetrize()
