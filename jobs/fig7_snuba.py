"""Regenerate the §4.2 Snuba comparison (Figs 7–8) as tables.

Usage: spark-submit jobs/fig7_snuba.py [--dataset directions|musicians]
"""
from __future__ import annotations

import argparse

from repro.corpora.datasets import ALL_DATASETS
from repro.eval.experiments import snuba_comparison
from repro.eval.pipeline import prepare
from repro.spark import get_spark

BIAS_TOKEN = {"directions": "shuttle", "musicians": "composer"}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="directions", choices=list(BIAS_TOKEN))
    ap.add_argument("--budget", type=int, default=100)
    args = ap.parse_args()
    spark = get_spark("fig7")
    prep = prepare(spark, ALL_DATASETS[args.dataset]())
    print(f"\n== Fig 7 (random seed sample, {args.dataset}): positives found ==")
    print(snuba_comparison(prep, budget=args.budget).to_string(index=False))
    tok = BIAS_TOKEN[args.dataset]
    print(f"\n== Fig 8 (biased sample: no '{tok}', {args.dataset}) ==")
    print(
        snuba_comparison(
            prep, budget=args.budget, biased_exclude_token=tok
        ).to_string(index=False)
    )
    spark.stop()


if __name__ == "__main__":
    main()
