"""Regenerate Table 2 (Darwin vs Darwin+Snorkel F-score).

Usage: spark-submit jobs/table2_snorkel.py [--budget B]
"""
from __future__ import annotations

import argparse

from repro.eval.experiments import table2
from repro.spark import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=100)
    args = ap.parse_args()
    spark = get_spark("table2")
    df = table2(spark, budget=args.budget)
    print("\n== Table 2: classifier F-score, raw Darwin labels vs snorkel-lite ==")
    print(df.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
