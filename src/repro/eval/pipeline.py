"""End-to-end wiring: corpus spec → Spark corpus → sketch/index →
features → ready-to-run Darwin inputs.

This is the distributed-ETL part of the reproduction: corpus
annotation, derivation-sketch explosion, inverted-index aggregation and
embedding training all run as DataFrame transformations; the driver
receives the thresholded index, the sentence features and the ground
truth needed to simulate the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.classifier import EmbeddingClassifier
from repro.corpora.generator import CorpusSpec, build_corpus
from repro.grammar import tokensregex
from repro.index.inverted import HeuristicIndex
from repro.index.sketch import SketchConfig, sketch_df
from repro.text import embeddings as emb


@dataclass
class Prepared:
    """Everything Darwin and the baselines need for one corpus."""

    spec: CorpusSpec
    corpus_df: DataFrame
    index: HeuristicIndex
    features: emb.Features        # a row per distinct token list; .row maps sid → row
    labels: np.ndarray            # ground truth, sid-ordered
    cfg: SketchConfig

    @property
    def n(self) -> int:
        return len(self.labels)

    def seed_rule_key(self) -> str:
        """The spec's default seed rule as an index key."""
        return tokensregex.key_of(self.spec.seed_rule)

    def make_classifier(self, seed: int = 0, **kwargs) -> EmbeddingClassifier:
        return EmbeddingClassifier(self.features, seed=seed, **kwargs)


def collect_corpus(corpus: DataFrame) -> tuple[np.ndarray, list[list[str]]]:
    """The corpus' labels and token lists, sid-ordered.

    Collected through Arrow in whatever order Spark returns the rows and
    sorted by sid on the driver. Raises a ``ValueError`` unless the sids
    are exactly ``0..n-1``.
    """
    table = corpus.select("sid", "label", "tokens").toArrow()
    sid = table.column("sid").to_numpy()
    order = np.argsort(sid)
    if not np.array_equal(sid[order], np.arange(len(sid))):
        raise ValueError(f"corpus sids are not 0..{len(sid) - 1}")
    labels = table.column("label").to_numpy()[order].astype(np.int64)
    token_lists = table.column("tokens").take(order).to_pylist()
    return labels, token_lists


def prepare(
    spark: SparkSession,
    spec: CorpusSpec,
    *,
    cfg: SketchConfig = SketchConfig(),
    min_count: int = 2,
) -> Prepared:
    """Build and collect all per-corpus artifacts (see module docstring)."""
    corpus = build_corpus(spark, spec).cache()

    index = HeuristicIndex.from_sketch(sketch_df(corpus, cfg), spec.n, min_count=min_count)
    labels, token_lists = collect_corpus(corpus)

    vocab = emb.word2vec_embeddings(corpus)
    features = emb.combined_matrix(token_lists, vocab, emb.DEFAULT_DIM)

    return Prepared(
        spec=spec,
        corpus_df=corpus,
        index=index,
        features=features,
        labels=labels,
        cfg=cfg,
    )
