"""Correctness gate for one pipeline run, applied outside the timed window.

Each check returns a list of problems; an empty list is a pass. Together
they cover every assertion of ``benchmarks/bench_table*.py`` but
``bench_table3``'s re-run of ``select_stations``, plus the invariants the
tables must satisfy by construction.
"""
from __future__ import annotations

import time

from pyspark.sql import functions as F

#: Stations left after cleaning, at every scale factor (Table I).
CLEAN_STATIONS = 92
#: Largest accepted |Q(distributed) - modularity_ref(same assignment)|.
Q_TOLERANCE = 1e-9
TABLE_OF = {"basic": "table4", "day": "table5", "hour": "table6"}


def check_tables(result, rendered: dict, cfg) -> list[str]:
    """Tables I-VI and the headline against the config and each other."""
    problems = []

    def expect(ok, msg):
        if not ok:
            problems.append(msg)

    trips = cfg.n_rentals
    t1 = rendered["table1"].set_index("measure")["cleaned"]
    expect(t1["#rental"] == cfg.n_rentals, f"table1 rentals {t1['#rental']} != {cfg.n_rentals}")
    expect(t1["#location"] == cfg.n_locations,
           f"table1 locations {t1['#location']} != {cfg.n_locations}")
    expect(t1["#stations"] == CLEAN_STATIONS, f"table1 stations {t1['#stations']} != 92")

    t2 = rendered["table2"].set_index("measure")["value"]
    expect(t2["#trips"] == trips, f"table2 trips {t2['#trips']} != {trips}")
    expect(t2["#directed edges"] >= t2["#undirected edges"], "table2 directed < undirected")

    t3 = rendered["table3"].set_index("kind")
    n_selected = result.selection.n_selected
    expect(t3.loc["total", "trips_from"] == trips, "table3 trips_from total != trips")
    expect(t3.loc["total", "trips_to"] == trips, "table3 trips_to total != trips")
    expect(t3.loc["pre-existing", "stations"] == CLEAN_STATIONS, "table3 old stations != 92")
    expect(t3.loc["selected", "stations"] == n_selected,
           f"table3 new stations {t3.loc['selected', 'stations']} != n_selected {n_selected}")
    expect(rendered["headline"]["n_selected"] == n_selected, "headline n_selected differs")

    for g, run in result.communities.items():
        table = rendered[TABLE_OF[g]]
        expect(-1.0 <= run.modularity <= 1.0, f"{g}: modularity {run.modularity} out of range")
        expect(run.n_communities >= 1, f"{g}: no community")
        expect(len(table) == run.n_communities, f"{g}: table rows != communities")
        expect((table["trips_within"] + table["trips_out"]).sum() == trips,
               f"{g}: sum(within + out) != trips")
        expect((table["trips_within"] + table["trips_in"]).sum() == trips,
               f"{g}: sum(within + in) != trips")
        expect(table["total_stations"].sum() == CLEAN_STATIONS + n_selected,
               f"{g}: community stations != 92 + n_selected")
    return problems


def check_louvain(result, granularity: str) -> tuple[list[str], dict]:
    """Every station in exactly one community, and the returned Q equal to
    ``modularity_ref`` of the returned assignment on the same graph. Also
    runs ``louvain_ref`` there and returns the graph's size and the gap."""
    from repro.graph.builder import temporal_graph
    from repro.louvain.reference import louvain_ref, modularity_ref

    run = result.communities[granularity]
    problems = []
    rows = [(r["group_id"], r["community"]) for r in run.assignment.collect()]
    assignment = dict(rows)
    stations = {r["group_id"] for r in result.station_kinds.select("group_id").collect()}
    if len(rows) != len(assignment):
        problems.append(f"{granularity}: a station is in two communities")
    if set(assignment) != stations:
        problems.append(
            f"{granularity}: {len(stations - set(assignment))} stations without a "
            f"community, {len(set(assignment) - stations)} unknown ids assigned"
        )
    # modularity_ref takes each undirected edge once; the graph is symmetric.
    edges = [
        (r["src"], r["dst"], r["weight"])
        for r in temporal_graph(result.selected_trips, granularity)
        .edges.filter(F.col("src") <= F.col("dst"))
        .collect()
    ]
    nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    if not nodes <= set(assignment):
        problems.append(f"{granularity}: graph nodes missing from the assignment")
        return problems, {}
    q = modularity_ref(edges, assignment)
    if abs(q - run.modularity) > Q_TOLERANCE:
        problems.append(
            f"{granularity}: returned Q {run.modularity!r} != recomputed {q!r}"
        )
    start = time.perf_counter()
    ref = louvain_ref(edges)
    ref_s = time.perf_counter() - start
    return problems, {
        "nodes": len(nodes),
        "edges": len(edges),
        "communities": run.n_communities,
        "q": run.modularity,
        "q_ref_gap": modularity_ref(edges, ref) - run.modularity,
        "ref_s": ref_s,
    }
