"""Regenerate the §4.3 progressive-coverage comparison (Fig 9) as a table.

Usage: spark-submit jobs/fig9_coverage.py [--dataset NAME] [--budget B]
"""
from __future__ import annotations

import argparse

from repro.corpora.datasets import ALL_DATASETS
from repro.eval.experiments import coverage_curves
from repro.eval.pipeline import prepare
from repro.spark import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="directions", choices=list(ALL_DATASETS))
    ap.add_argument("--budget", type=int, default=120)
    args = ap.parse_args()
    spark = get_spark("fig9")
    prep = prepare(spark, ALL_DATASETS[args.dataset]())
    df = coverage_curves(prep, budget=args.budget)
    print(f"\n== Fig 9 ({args.dataset}): progressive coverage by strategy ==")
    print(df.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
