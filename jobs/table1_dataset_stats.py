"""Regenerate Table 1 (dataset statistics).

Usage: spark-submit jobs/table1_dataset_stats.py [--profession-n N]
"""
from __future__ import annotations

import argparse

from repro.eval.experiments import table1
from repro.spark import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profession-n", type=int, default=50_000,
                    help="profession corpus size (paper: 1_000_000)")
    args = ap.parse_args()
    spark = get_spark("table1")
    df = table1(spark, n_override={"profession": args.profession_n})
    print("\n== Table 1: dataset statistics (ours vs paper) ==")
    print(df.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
