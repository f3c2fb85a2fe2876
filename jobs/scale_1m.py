"""§4.5 efficiency claim: label a 1M-sentence corpus end to end.

Builds the professions corpus at --n sentences, times each distributed
stage (annotation, sketch+index aggregation, embeddings), runs
Darwin(HS) at --budget oracle queries, then produces weak labels for
the whole corpus with the distributed rule-application path.

Usage: spark-submit jobs/scale_1m.py [--n 1000000] [--budget 100]

The paper reports: index build < 5 min, full pipeline < 3 h on 1M
sentences (64 cores / 500 GB); we run on local[*] with ~16 cores.
"""
from __future__ import annotations

import argparse
import time

import numpy as np
from pyspark.sql import functions as F

from repro.core.darwin import run_darwin
from repro.core.labeling import apply_rules
from repro.core.oracle_sim import GroundTruthOracle
from repro.corpora.datasets import professions
from repro.corpora.generator import build_corpus
from repro.eval.metrics import coverage_of_ids, precision_of_ids
from repro.index.inverted import HeuristicIndex
from repro.index.sketch import SketchConfig, sketch_df
from repro.spark import get_spark
from repro.text import embeddings as emb


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--budget", type=int, default=100)
    ap.add_argument("--min-count", type=int, default=5)
    ap.add_argument("--top-k", type=int, default=200_000)
    ap.add_argument("--embedding", default="hashing", choices=["hashing", "word2vec"])
    args = ap.parse_args()
    spark = get_spark("scale1m")

    t0 = time.time()
    corpus = build_corpus(spark, professions(n=args.n), partitions=64).cache()
    n = corpus.count()
    t_corpus = time.time() - t0
    print(f"[scale] corpus built+annotated: n={n} in {t_corpus:.1f}s")

    t0 = time.time()
    cfg = SketchConfig(max_len=5, max_gap=3)
    index = HeuristicIndex.from_sketch(
        sketch_df(corpus, cfg), n, min_count=args.min_count, top_k=args.top_k
    )
    t_index = time.time() - t0
    print(f"[scale] index built: {len(index)} heuristics in {t_index:.1f}s "
          f"(paper: <5 min)")

    t0 = time.time()
    rows = corpus.select("sid", "label", "tokens").orderBy("sid").collect()
    labels = np.array([r["label"] for r in rows], dtype=np.int64)
    token_lists = [list(r["tokens"]) for r in rows]
    if args.embedding == "word2vec":
        vocab = emb.word2vec_embeddings(corpus, dim=32)
    else:
        vocab = emb.hashing_embeddings((t for ts in token_lists for t in ts), dim=32)
    features = emb.combined_matrix(token_lists, vocab, 32)
    t_feat = time.time() - t0
    print(f"[scale] features: {features.shape} in {t_feat:.1f}s")

    from repro.core.classifier import EmbeddingClassifier
    from repro.grammar import tokensregex as tr

    t0 = time.time()
    res = run_darwin(
        index,
        EmbeddingClassifier(features),
        GroundTruthOracle(labels),
        seed_rule=tr.key_of(professions().seed_rule),
        budget=args.budget,
        strategy="hybrid",
        true_labels=labels,
    )
    t_darwin = time.time() - t0
    cov = coverage_of_ids(res.positives, labels)
    prec = precision_of_ids(res.positives, labels)
    print(f"[scale] darwin(HS): {len(res.rules)} rules, coverage={cov:.3f} "
          f"precision={prec:.3f} in {t_darwin:.1f}s")

    t0 = time.time()
    labeled = apply_rules(corpus, res.rules, cfg)
    n_weak = labeled.agg(F.sum(F.col("weak_label").cast("long"))).collect()[0][0]
    t_apply = time.time() - t0
    print(f"[scale] distributed weak labels: {n_weak} positives in {t_apply:.1f}s")

    total = t_corpus + t_index + t_feat + t_darwin + t_apply
    print(f"[scale] TOTAL {total/60:.1f} min (paper: <3 h at 1M)")
    spark.stop()


if __name__ == "__main__":
    main()
