"""End-to-end reproduction pipeline.

``run_pipeline`` chains every stage of the paper: generate (or accept)
the Moby tables -> clean (Table I) -> HAC candidates (Table II) ->
Algorithm 1 selection (Table III) -> Louvain on G_Basic/G_Day/G_Hour
(Tables IV/V/VI). Each stage's outputs are exposed on the result object
so tests and ``perfbench/`` can exercise them independently;
``jobs/run_all.py`` prints the tables of one run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.analysis.communities import community_table, intra_community_share
from repro.graph.builder import (
    GraphStats,
    graph_stats,
    temporal_graph,
    trips_with_groups,
)
from repro.graph.graph import Graph
from repro.hac.cluster import CandidateResult, build_candidates
from repro.louvain.louvain import index_vertices, louvain
from repro.moby.cleaning import CleanResult, clean
from repro.moby.generator import MobyConfig, MobyData, generate, paper_config
from repro.stations.selection import SelectionResult, select_stations


@dataclass(frozen=True)
class CommunityRun:
    """Louvain output for one temporal granularity, station-id keyed."""

    granularity: str
    assignment: DataFrame  # (group_id, community)
    modularity: float
    n_communities: int
    intra_share: float
    table: DataFrame  # Tables IV/V/VI layout


@dataclass
class PipelineResult:
    data: MobyData
    cleaned: CleanResult
    candidates: CandidateResult
    candidate_trips: DataFrame
    candidate_stats: GraphStats
    selection: SelectionResult
    selected_trips: DataFrame
    station_kinds: DataFrame  # (group_id, is_new)
    communities: dict = field(default_factory=dict)  # granularity -> CommunityRun


def louvain_groups(g: Graph) -> tuple[DataFrame, float]:
    """Run Louvain on a graph whose vertex ids are strings (group ids):
    index to longs, detect, map back. Returns ((group_id, community), Q)."""
    idx = index_vertices(g.vertices).cache()
    e = (
        g.edges.join(idx.withColumnRenamed("id", "src"), "src")
        .withColumnRenamed("idx", "src_idx")
        .join(idx.withColumnRenamed("id", "dst"), "dst")
        .withColumnRenamed("idx", "dst_idx")
        .select(
            F.col("src_idx").alias("src"),
            F.col("dst_idx").alias("dst"),
            "weight",
        )
    )
    v = idx.select(F.col("idx").alias("id"))
    res = louvain(Graph(v, e))
    assignment = (
        res.assignment.withColumnRenamed("id", "idx")
        .join(idx, "idx")
        .select(F.col("id").alias("group_id"), "community")
    )
    return assignment, res.modularity


def run_pipeline(
    spark: SparkSession,
    cfg: MobyConfig | None = None,
    *,
    granularities: tuple[str, ...] = ("basic", "day", "hour"),
    data: MobyData | None = None,
) -> PipelineResult:
    """Execute the full paper pipeline. Pass ``data`` to reuse an already
    generated dataset (the benchmark does), else ``cfg`` controls generation."""
    data = data or generate(spark, cfg or paper_config())
    cleaned = clean(data.locations, data.rentals)

    candidates = build_candidates(cleaned.locations, cleaned.stations)
    candidate_trips = trips_with_groups(
        cleaned.rentals, candidates.assignment
    ).localCheckpoint()
    candidate_stats = graph_stats(candidate_trips)

    selection = select_stations(
        candidates.groups,
        candidate_trips,
        cleaned.locations,
        candidates.assignment,
    )
    final_assign = selection.final_assignment.select(
        "location_id", F.col("station_group").alias("group_id")
    )
    selected_trips = trips_with_groups(cleaned.rentals, final_assign).localCheckpoint()
    station_kinds = spark.createDataFrame(
        selection.stations[["group_id", "is_new"]], "group_id string, is_new boolean"
    )

    result = PipelineResult(
        data=data,
        cleaned=cleaned,
        candidates=candidates,
        candidate_trips=candidate_trips,
        candidate_stats=candidate_stats,
        selection=selection,
        selected_trips=selected_trips,
        station_kinds=station_kinds,
    )
    for gran in granularities:
        result.communities[gran] = run_communities(result, gran)
    return result


def run_communities(result: PipelineResult, granularity: str) -> CommunityRun:
    """Louvain + community table for one temporal granularity of the
    selected graph."""
    g = temporal_graph(result.selected_trips, granularity)
    assignment, q = louvain_groups(g)
    assignment = assignment.cache()
    table = community_table(
        assignment, result.station_kinds, result.selected_trips
    ).cache()
    return CommunityRun(
        granularity=granularity,
        assignment=assignment,
        modularity=q,
        n_communities=table.count(),
        intra_share=intra_community_share(table),
        table=table,
    )
