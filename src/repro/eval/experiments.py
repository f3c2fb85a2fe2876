"""Experiment harnesses reproducing §4's tables and headline claims.

Each function returns a pandas DataFrame whose rows mirror what the
paper reports, so jobs/ can print paper-vs-measured side by side and
EXPERIMENTS.md can record the diff. Dataset sizes default to the
paper's Table 1 (professions scaled to 50K; the 1M run lives in
``jobs/scale_1m.py``); tests pass smaller ``n`` for speed.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.baselines.snuba import run_snuba, snuba_positives
from repro.core.darwin import run_darwin
from repro.core.labeling import dedupe_rules, label_matrix
from repro.core.oracle_sim import GroundTruthOracle
from repro.corpora.datasets import ALL_DATASETS, PAPER_TABLE1
from repro.corpora.generator import generate_pandas
from repro.eval.metrics import coverage_of_ids, precision_recall_f1
from repro.eval.pipeline import Prepared, prepare
from repro.grammar import tokensregex
from repro.index.inverted import HeuristicIndex
from repro.snorkel_lite.label_model import LabelModel, majority_vote

# Paper's Table 2 (F-score with/without Snorkel de-noising).
PAPER_TABLE2 = pd.DataFrame(
    {
        "dataset": ["musicians", "cause-effect", "directions", "tweets"],
        "paper_darwin": [0.91, 0.79, 0.89, 0.87],
        "paper_darwin_snorkel": [0.82, 0.78, 0.97, 0.87],
    }
)


def table1(spark: SparkSession, *, n_override: dict[str, int] | None = None) -> pd.DataFrame:
    """Table 1: dataset statistics, computed with a Spark aggregation
    over the generated sentences (no annotation needed)."""
    n_override = n_override or {}
    rows = []
    for name, make in ALL_DATASETS.items():
        spec = make()
        if name in n_override:
            spec = spec.with_n(n_override[name])
        corpus = spark.createDataFrame(generate_pandas(spec))
        agg = corpus.agg(
            F.count("sid").alias("sentences"),
            (100.0 * F.avg("label")).alias("pct_positives"),
        ).collect()[0]
        paper = PAPER_TABLE1[name]
        rows.append(
            {
                "dataset": name,
                "sentences": int(agg["sentences"]),
                "pct_positives": round(float(agg["pct_positives"]), 2),
                "labeling": paper["labeling"],
                "paper_sentences": paper["sentences"],
                "paper_pct_positives": paper["pct_positives"],
            }
        )
    return pd.DataFrame(rows)


def _final_fscores(prep: Prepared, rules: list[str], positives: set[int], *, seed: int = 7) -> tuple[float, float]:
    """(F1 of classifier on raw Darwin labels, F1 with snorkel-lite).

    'Raw' trains on P as positives vs sampled non-P negatives (the
    labels Darwin itself outputs); 'snorkel' first de-noises the rule
    votes with the label model and trains on its posterior labels.
    """
    labels = prep.labels
    # Darwin-direct labels. Final-classifier mode: unbalanced with a
    # larger negative sample so the 0.5 threshold is precision-sane
    # under class imbalance (see EmbeddingClassifier docstring).
    kw = dict(balance=False, neg_ratio=6.0, epochs=2000, lr=2.0, l2=1e-4)
    clf = prep.make_classifier(seed=seed, **kw).fit(positives)
    _, _, f1_raw = precision_recall_f1(clf.scores() >= 0.5, labels)

    L = label_matrix(prep.index, dedupe_rules(prep.index, rules), prep.n)
    lm = LabelModel(seed=seed).fit(L)
    post = lm.predict_proba()
    pos_ids = set(np.nonzero(post >= 0.5)[0].tolist())
    if not pos_ids:  # label model collapsed — fall back to majority vote
        pos_ids = set(np.nonzero(majority_vote(L))[0].tolist())
    clf2 = prep.make_classifier(seed=seed, **kw).fit(pos_ids)
    _, _, f1_lm = precision_recall_f1(clf2.scores() >= 0.5, labels)
    return f1_raw, f1_lm


def table2(
    spark: SparkSession,
    *,
    budget: int = 100,
    n_override: dict[str, int] | None = None,
    datasets: tuple[str, ...] = ("musicians", "cause-effect", "directions", "tweets"),
) -> pd.DataFrame:
    """Table 2: Darwin(HS) F-score with and without Snorkel de-noising."""
    n_override = n_override or {}
    rows = []
    for name in datasets:
        spec = ALL_DATASETS[name]()
        if name in n_override:
            spec = spec.with_n(n_override[name])
        prep = prepare(spark, spec)
        res = run_darwin(
            prep.index,
            prep.make_classifier(),
            GroundTruthOracle(prep.labels),
            seed_rule=prep.seed_rule_key(),
            budget=budget,
            strategy="hybrid",
            true_labels=prep.labels,
        )
        f1_raw, f1_lm = _final_fscores(prep, res.rules, res.positives)
        paper = PAPER_TABLE2[PAPER_TABLE2.dataset == name]
        rows.append(
            {
                "dataset": name,
                "darwin_f1": round(f1_raw, 3),
                "darwin_snorkel_f1": round(f1_lm, 3),
                "paper_darwin": float(paper.paper_darwin.iloc[0]),
                "paper_darwin_snorkel": float(paper.paper_darwin_snorkel.iloc[0]),
                "n_rules": len(res.rules),
                "coverage": round(coverage_of_ids(res.positives, prep.labels), 3),
            }
        )
    return pd.DataFrame(rows)


def coverage_curves(
    prep: Prepared,
    *,
    budget: int = 120,
    strategies: tuple[str, ...] = ("hybrid", "local", "universal", "highp", "highc"),
    checkpoints: tuple[int, ...] = (25, 50, 100, 120),
) -> pd.DataFrame:
    """§4.3 (Fig 9 top row): progressive coverage per traversal strategy."""
    rows = []
    for strat in strategies:
        res = run_darwin(
            prep.index,
            prep.make_classifier(),
            GroundTruthOracle(prep.labels),
            seed_rule=prep.seed_rule_key(),
            budget=budget,
            strategy=strat,
            true_labels=prep.labels,
        )
        curve = dict(res.recall_curve())
        final = coverage_of_ids(res.positives, prep.labels)
        row = {"strategy": strat, "final_coverage": round(final, 3), "n_rules": len(res.rules)}
        last = None
        for c in checkpoints:
            # Curve stops early if the strategy ran out of candidates;
            # carry the last value forward.
            vals = [v for q, v in curve.items() if q <= c]
            last = vals[-1] if vals else last
            row[f"cov@{c}"] = round(last, 3) if last is not None else np.nan
        rows.append(row)
    return pd.DataFrame(rows)


def pool_without(index: HeuristicIndex, token: str) -> np.ndarray:
    """Sorted ids of the sentences not containing ``token``: the
    complement of its unigram key's postings. Raises a ``ValueError``
    if that key is not in the index."""
    key = tokensregex.key_of((token,))
    if key not in index:
        raise ValueError(f"token {token!r} is not an index key ({key!r})")
    return np.setdiff1d(np.arange(index.n_sentences), index.ids(key))


def snuba_comparison(
    prep: Prepared,
    *,
    seed_sizes: tuple[int, ...] = (10, 25, 50, 100, 200, 500, 1000),
    budget: int = 100,
    biased_exclude_token: str | None = None,
    seed: int = 11,
) -> pd.DataFrame:
    """§4.2 (Figs 7–8): positives found by Snuba vs Darwin(HS) when both
    start from the same random labeled sample.

    ``biased_exclude_token`` reproduces Fig 8: the labeled sample is
    drawn from sentences *not* containing the token (e.g. 'shuttle'),
    so Snuba has zero evidence for that family.
    """
    rng = np.random.default_rng(seed)
    pool = np.arange(prep.n)
    if biased_exclude_token:
        pool = pool_without(prep.index, biased_exclude_token)

    rows = []
    for size in seed_sizes:
        size = min(size, len(pool))
        sample = rng.choice(pool, size=size, replace=False)
        sample_pos = {int(i) for i in sample if prep.labels[i] == 1}

        snuba_rules = run_snuba(prep.index, list(sample), prep.labels)
        sn_recall = coverage_of_ids(snuba_positives(prep.index, snuba_rules), prep.labels)

        if sample_pos:
            res = run_darwin(
                prep.index,
                prep.make_classifier(),
                GroundTruthOracle(prep.labels),
                seed_positive_ids=sample_pos,
                budget=budget,
                strategy="hybrid",
                true_labels=prep.labels,
            )
            da_recall = coverage_of_ids(res.positives, prep.labels)
        else:
            da_recall = 0.0
        rows.append(
            {
                "seed_size": size,
                "n_seed_positives": len(sample_pos),
                "snuba_recall": round(sn_recall, 3),
                "darwin_recall": round(da_recall, 3),
                "snuba_rules": len(snuba_rules),
            }
        )
    return pd.DataFrame(rows)
