"""One function per paper table, each returning a small pandas DataFrame
shaped like the table in the paper (plus the headline scalars around it).

These functions consume a :class:`repro.pipeline.PipelineResult`, so a
single pipeline run yields every table; ``jobs/run_all.py`` prints them
and ``perfbench/`` times Tables I-III.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import functions as F

from repro.pipeline import PipelineResult

#: The paper's reported values, used by EXPERIMENTS.md and asserted
#: (shape-wise) in tests.
PAPER = {
    "table1": {
        "raw": {"stations": 95, "rentals": 62_324, "locations": 14_239},
        "clean": {"stations": 92, "rentals": 61_872, "locations": 14_156},
    },
    "table2": {
        "nodes": 1_172,
        "undirected_edges": 8_240,
        "undirected_edges_no_loops": 7_820,
        "directed_edges": 16_042,
        "directed_edges_no_loops": 15_604,
        "trips": 61_872,
    },
    "table3": {
        "stations": {"old": 92, "new": 146, "total": 238},
        "trips_from": {"old": 54_670, "new": 7_202},
        "trips_to": {"old": 54_727, "new": 7_145},
        "edges_from": {"old": 6_437, "new": 2_072},
        "edges_to": {"old": 6_310, "new": 2_199},
        "edges_total": 8_509,
    },
    "table4": {"communities": 3, "modularity": 0.25, "intra_share": 0.74},
    "table5": {"communities": 7, "modularity": 0.32},
    "table6": {"communities": 10, "modularity": 0.54},
}


def table1(result: PipelineResult) -> pd.DataFrame:
    """Table I — dataset overview (raw vs cleaned cardinalities)."""
    c = result.cleaned
    return pd.DataFrame(
        {
            "measure": ["#stations", "#rental", "#location"],
            "original": [c.raw_stations, c.raw_rentals, c.raw_locations],
            "cleaned": [c.clean_stations, c.clean_rentals, c.clean_locations],
        }
    )


def table2(result: PipelineResult) -> pd.DataFrame:
    """Table II — the candidate graph generated by HAC."""
    s = result.candidate_stats
    return pd.DataFrame(
        {
            "measure": [
                "#nodes",
                "#undirected edges",
                "#undirected edges (no loops)",
                "#directed edges",
                "#directed edges (no loops)",
                "#trips",
            ],
            "value": [
                s.n_nodes,
                s.undirected_edges,
                s.undirected_edges_no_loops,
                s.directed_edges,
                s.directed_edges_no_loops,
                s.n_trips,
            ],
        }
    )


def table3(result: PipelineResult) -> pd.DataFrame:
    """Table III — the selected graph: trips and directed edges split by
    pre-existing vs newly selected stations (From = by source station
    kind, To = by destination kind)."""
    kinds = result.station_kinds
    rows = (
        result.selected_trips.groupBy("src_group", "dst_group")
        .agg(F.count(F.lit(1)).alias("trips"))
        .join(kinds.select(F.col("group_id").alias("src_group"),
                           F.col("is_new").alias("src_new")), "src_group")
        .join(kinds.select(F.col("group_id").alias("dst_group"),
                           F.col("is_new").alias("dst_new")), "dst_group")
        .groupBy("src_new", "dst_new")
        .agg(F.sum("trips").alias("trips"), F.count(F.lit(1)).alias("edges"))
        .collect()
    )
    st_by = {bool(r["is_new"]): int(r["count"])
             for r in kinds.groupBy("is_new").count().collect()}

    def split(is_new: bool, end: str, measure: str) -> int:
        return sum(int(r[measure]) for r in rows if r[end] == is_new)

    out = [
        {
            "kind": kind,
            "stations": st_by.get(is_new, 0),
            "trips_from": split(is_new, "src_new", "trips"),
            "trips_to": split(is_new, "dst_new", "trips"),
            "edges_from": split(is_new, "src_new", "edges"),
            "edges_to": split(is_new, "dst_new", "edges"),
        }
        for kind, is_new in (("pre-existing", False), ("selected", True))
    ]
    total = {"kind": "total", **{c: sum(r[c] for r in out) for c in out[0] if c != "kind"}}
    return pd.DataFrame(out + [total])


def _community_pdf(result: PipelineResult, granularity: str) -> pd.DataFrame:
    run = result.communities[granularity]
    pdf = run.table.toPandas().sort_values("community").reset_index(drop=True)
    pdf["community"] = pdf["community"].astype(int) + 1  # paper ids are 1-based
    return pdf


def table4(result: PipelineResult) -> pd.DataFrame:
    """Table IV — communities in G_Basic (stations old/new, trips
    within/out/in per community)."""
    return _community_pdf(result, "basic")


def table5(result: PipelineResult) -> pd.DataFrame:
    """Table V — communities in G_Day."""
    return _community_pdf(result, "day")


def table6(result: PipelineResult) -> pd.DataFrame:
    """Table VI — communities in G_Hour."""
    return _community_pdf(result, "hour")


def headline(result: PipelineResult) -> dict:
    """The scalar headlines quoted in the paper's text: community counts,
    modularity scores, intra-community share, selected-station count."""
    out = {
        "threshold": result.selection.threshold,
        "n_selected": result.selection.n_selected,
    }
    for gran, run in result.communities.items():
        out[f"{gran}_communities"] = run.n_communities
        out[f"{gran}_modularity"] = round(run.modularity, 4)
        out[f"{gran}_intra_share"] = round(run.intra_share, 4)
    return out
