"""Distributed Louvain community detection on Spark DataFrames.

Implements the two-phase Louvain scheme (paper refs [27], [34]) as a
GraphX-style dataflow:

* **Local moving** — every round, the edge-scale work (the per-vertex,
  per-neighbour-community weight aggregation ``w_ic`` and the modularity
  gain ranking) runs distributed in Catalyst: one join of the edge table
  against the broadcast assignment plus two hash aggregations. The O(V)
  per-vertex state (assignment, degrees, community totals) rides the
  driver between rounds as plain dicts and re-enters each round's plan as
  fresh ``LocalRelation`` leaves — the role of a Pregel superstep barrier.

  Two deliberate consequences:

  - no round builds on the previous round's *query plan*, which defeats a
    Catalyst pathology where ``localCheckpoint`` preserves size statistics
    and the BigInt size estimate compounds multiplicatively per round
    (digit count grows exponentially; stats estimation ends up dominating
    runtime);
  - per-vertex state must fit on the driver — the same requirement the
    broadcast-join formulation already imposed, and far beyond this
    paper's scale (and GraphX's own Louvain ports do the same for the
    community-total exchange).

* **Swap safety** — fully parallel greedy moving lets two vertices swap
  communities forever (each sees a positive gain against the *old*
  assignment). Rounds alternate move direction: even rounds only allow
  moves to a smaller community id, odd rounds to a larger one. A swap
  needs both directions simultaneously, so it cannot occur, while any
  merge remains reachable within two rounds.

* **Aggregation** — communities are contracted into super-nodes
  (distributed join + aggregation), intra-community weight becomes a
  self-loop, and the process recurses until a level yields no modularity
  improvement.

Vertex ids must be integral (cast to long); use
:func:`repro.louvain.louvain.index_vertices` to map arbitrary ids first.

Input graphs must be in symmetric form (:meth:`Graph.symmetrize`): each
undirected non-loop edge in both directions, self-loops once.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.graph import DST, SRC, WEIGHT, Graph
from repro.louvain.modularity import modularity


@dataclass(frozen=True)
class LouvainResult:
    """``assignment`` maps every original vertex id to a community label
    (0..k-1, stable: labels ordered by the minimum vertex id they contain).
    ``levels`` is the number of aggregation levels executed."""

    assignment: DataFrame
    modularity: float
    levels: int


def index_vertices(vertices: DataFrame) -> DataFrame:
    """Deterministic (id -> dense long index) mapping: ``(id, idx)``,
    indices assigned in sorted-id order."""
    from pyspark.sql.window import Window

    w = Window.orderBy(F.col("id"))
    return vertices.select("id").distinct().withColumn(
        "idx", F.row_number().over(w).cast("long") - 1
    )


def louvain(
    g: Graph,
    *,
    tol: float = 1e-7,
    max_local_iter: int = 40,
    max_levels: int = 10,
) -> LouvainResult:
    """Run Louvain on the symmetric graph ``g`` and return the final
    assignment of original vertices plus the achieved modularity."""
    spark = g.edges.sparkSession
    edges = (
        g.edges.select(
            F.col(SRC).cast("long").alias(SRC),
            F.col(DST).cast("long").alias(DST),
            F.col(WEIGHT).cast("double").alias(WEIGHT),
        )
        .localCheckpoint()
    )
    vids = [r["id"] for r in g.vertices.select(F.col("id").cast("long")).distinct().collect()]
    # origin -> current super-node, carried on the driver (O(V))
    mapping = {v: v for v in vids}

    assign_df = _assign_df(spark, {v: v for v in vids})
    best_q = modularity(Graph(assign_df.select("id"), edges), assign_df)
    levels = 0
    for _ in range(max_levels):
        comm, moved_any = _local_moving(spark, edges, tol=tol, max_iter=max_local_iter)
        if not moved_any:
            break
        assign_df = _assign_df(spark, comm)
        q = modularity(Graph(assign_df.select("id"), edges), assign_df)
        if q <= best_q + tol:
            break
        best_q = q
        levels += 1
        # isolated vertices never enter `comm`; they stay as singletons
        mapping = {orig: comm.get(sup, sup) for orig, sup in mapping.items()}
        edges = _aggregate(edges, assign_df).localCheckpoint()

    # Relabel to consecutive ints ordered by minimum member vertex id.
    by_comm: dict = defaultdict(list)
    for v, c in mapping.items():
        by_comm[c].append(v)
    order = sorted(by_comm, key=lambda c: min(by_comm[c]))
    label = {c: i for i, c in enumerate(order)}
    assignment = spark.createDataFrame(
        [(v, label[c]) for v, c in sorted(mapping.items())],
        schema="id long, community long",
    )
    return LouvainResult(assignment=assignment, modularity=best_q, levels=levels)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def _assign_df(spark: SparkSession, comm: dict) -> DataFrame:
    return spark.createDataFrame(
        [(int(v), int(c)) for v, c in sorted(comm.items())],
        schema="id long, community long",
    )


def _local_moving(
    spark: SparkSession,
    edges: DataFrame,
    *,
    tol: float,
    max_iter: int,
) -> tuple[dict, bool]:
    """Parallel local-moving phase over the level's vertex set (every id
    appearing in ``edges``). Returns (vertex -> community dict, whether any
    vertex ever moved)."""
    is_loop = F.col(SRC) == F.col(DST)
    k_rows = (
        edges.groupBy(F.col(SRC).alias("id"))
        .agg(
            F.sum(
                F.when(is_loop, 2.0 * F.col(WEIGHT)).otherwise(F.col(WEIGHT))
            ).alias("k")
        )
        .collect()
    )
    k = {r["id"]: float(r["k"]) for r in k_rows}
    m = sum(k.values()) / 2.0
    comm = {v: v for v in k}
    if m <= 0.0:
        return comm, False
    k_df = spark.createDataFrame(
        [(int(v), kv) for v, kv in sorted(k.items())], schema="id long, k double"
    )
    nonloop = edges.filter(~is_loop)

    moved_any = False
    stable_rounds = 0
    for it in range(max_iter):
        sigma = defaultdict(float)
        for v, c in comm.items():
            sigma[c] += k[v]
        assign_df = _assign_df(spark, comm)
        sigma_df = spark.createDataFrame(
            [(int(c), t) for c, t in sorted(sigma.items())],
            schema="c long, tot double",
        )
        # w_ic: weight from vertex i to community c over non-loop edges —
        # the distributed, edge-scale aggregation of the round.
        nbr_c = assign_df.select(F.col("id").alias(DST), F.col("community").alias("c"))
        w_ic = (
            nonloop.join(F.broadcast(nbr_c), DST)
            .groupBy(F.col(SRC).alias("id"), "c")
            .agg(F.sum(WEIGHT).alias("w_ic"))
        )
        direction = (
            (F.col("c") <= F.col("community"))
            if it % 2 == 0
            else (F.col("c") >= F.col("community"))
        )
        cand = (
            w_ic.join(F.broadcast(assign_df), "id")
            .join(F.broadcast(k_df), "id")
            .join(F.broadcast(sigma_df), "c")
            .filter(direction)
            .withColumn(
                "tot_adj",
                F.col("tot")
                - F.when(F.col("c") == F.col("community"), F.col("k")).otherwise(0.0),
            )
            .withColumn(
                "gain", F.col("w_ic") - F.col("k") * F.col("tot_adj") / F.lit(2.0 * m)
            )
        )
        best = cand.groupBy("id", "community").agg(
            F.max(F.struct(F.col("gain"), (-F.col("c")).alias("negc"))).alias("b"),
            F.max(
                F.when(F.col("c") == F.col("community"), F.col("gain"))
            ).alias("stay_gain_nbr"),
        )
        # The stay score when i has no (direction-allowed) neighbour in its
        # own community is 0 - k_i * (tot_cu - k_i)/(2m); vertices with no
        # allowed candidates at all simply do not move this round.
        moves = (
            best.join(F.broadcast(k_df), "id")
            .join(
                F.broadcast(sigma_df.withColumnRenamed("c", "community")), "community"
            )
            .withColumn(
                "stay_gain",
                F.coalesce(
                    F.col("stay_gain_nbr"),
                    -F.col("k") * (F.col("tot") - F.col("k")) / F.lit(2.0 * m),
                ),
            )
            .filter(
                (F.col("b.gain") > F.col("stay_gain") + F.lit(tol))
                & ((-F.col("b.negc")) != F.col("community"))
            )
            .select("id", (-F.col("b.negc")).alias("new_c"))
            .collect()  # O(movers) rows back to the driver
        )
        for r in moves:
            comm[r["id"]] = int(r["new_c"])
        if moves:
            moved_any = True
            stable_rounds = 0
        else:
            stable_rounds += 1
            # both move directions must pass a quiet round before stopping
            if stable_rounds >= 2:
                break
    return comm, moved_any


def _aggregate(edges: DataFrame, assign_df: DataFrame) -> DataFrame:
    """Contract communities into super-nodes, preserving the symmetric-form
    invariants (inter edges in both directions, loops once)."""
    a_src = assign_df.select(F.col("id").alias(SRC), F.col("community").alias("c_src"))
    a_dst = assign_df.select(F.col("id").alias(DST), F.col("community").alias("c_dst"))
    e = edges.join(F.broadcast(a_src), SRC).join(F.broadcast(a_dst), DST)
    is_loop = F.col(SRC) == F.col(DST)
    # Intra: symmetric non-loop pairs appear twice -> w/2 each; loops once -> w.
    loops = (
        e.filter(F.col("c_src") == F.col("c_dst"))
        .groupBy(F.col("c_src").alias(SRC))
        .agg(
            F.sum(F.when(is_loop, F.col(WEIGHT)).otherwise(F.col(WEIGHT) / 2.0)).alias(
                WEIGHT
            )
        )
        .withColumn(DST, F.col(SRC))
    )
    inter = (
        e.filter(F.col("c_src") != F.col("c_dst"))
        .groupBy(F.col("c_src").alias(SRC), F.col("c_dst").alias(DST))
        .agg(F.sum(WEIGHT).alias(WEIGHT))
    )
    return inter.select(SRC, DST, WEIGHT).unionByName(loops.select(SRC, DST, WEIGHT))
