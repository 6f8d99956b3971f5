"""Run the reproduction once and print the requested paper tables plus the
headline scalars, the Algorithm 1 funnel and the HAC component-size
histogram — the script that generates the numbers recorded in
EXPERIMENTS.md.

    spark-submit jobs/run_all.py [--sf 1.0] [--seed 10] [--tables table1,table4]

Louvain runs only on the granularities the requested tables need
(Table IV = G_Basic, V = G_Day, VI = G_Hour); the day and hour profiles
(Figs 5 and 7 data) are printed when G_Day and G_Hour ran.
"""
import argparse
import time

TABLES = ("table1", "table2", "table3", "table4", "table5", "table6")
GRANULARITY_OF = {"table4": "basic", "table5": "day", "table6": "hour"}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Reproduce the paper tables")
    p.add_argument("--sf", type=float, default=1.0, help="scale factor (1.0 = paper size)")
    p.add_argument("--seed", type=int, default=10, help="generator seed (10 = calibrated default)")
    p.add_argument(
        "--tables", default=",".join(TABLES),
        help=f"comma-separated subset of {','.join(TABLES)} (default: all)",
    )
    args = p.parse_args()
    args.tables = args.tables.split(",")
    unknown = sorted(set(args.tables) - set(TABLES))
    if unknown:
        p.error(f"unknown tables: {', '.join(unknown)}")
    return args


def main() -> None:
    from repro import tables
    from repro.analysis.temporal import day_profile, hour_profile
    from repro.moby.generator import paper_config
    from repro.pipeline import run_pipeline
    from repro.session import get_spark

    args = parse_args()
    granularities = tuple(GRANULARITY_OF[t] for t in args.tables if t in GRANULARITY_OF)
    spark = get_spark("repro-all")
    spark.sparkContext.setLogLevel("ERROR")
    t0 = time.time()
    result = run_pipeline(
        spark, paper_config(sf=args.sf, seed=args.seed), granularities=granularities
    )
    print(f"pipeline finished in {time.time() - t0:.0f}s (sf={args.sf}, seed={args.seed})")
    for name in args.tables:
        print(f"\n=== {name} ===")
        print(getattr(tables, name)(result).to_string(index=False))
    print("\nheadline:", tables.headline(result))
    print("Algorithm 1 funnel:",
          " -> ".join(f"{step} {n}" for step, n in result.selection.funnel.items()))
    print("HAC eps-component sizes (size: count):", result.candidates.component_sizes)
    # Figure 5 / Figure 7 data (not tables; printed for completeness)
    if "day" in result.communities:
        print("\n=== day profile (fig 5 data, G_Day) ===")
        print(
            day_profile(result.communities["day"].assignment, result.selected_trips)
            .toPandas().pivot(index="community", columns="day_of_week", values="share")
            .round(3).to_string()
        )
    if "hour" in result.communities:
        print("\n=== hour profile (fig 7 data, G_Hour) ===")
        print(
            hour_profile(result.communities["hour"].assignment, result.selected_trips)
            .toPandas().pivot(index="community", columns="hour", values="share")
            .fillna(0.0).round(3).to_string()
        )
    spark.stop()


if __name__ == "__main__":
    main()
