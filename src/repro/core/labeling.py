"""Weak-label production: apply discovered rules to a corpus.

Two paths with identical semantics:

- :func:`label_matrix` — driver-side (n × m) boolean matrix from the
  index's inverted lists, consumed by the snorkel-lite label model;
- :func:`apply_rules` — distributed rule application over the
  (annotated) corpus DataFrame with ``mapInPandas``, which adds the
  weak-label columns to the corpus on the executors (the 1M-sentence
  profession job) and serves tests as an independent check of the
  index's inverted lists. Every Darwin rule is an indexed key, so both
  paths fire on the same sentences.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.index.inverted import HeuristicIndex
from repro.index.sketch import SketchConfig, matches_sentence


def dedupe_rules(index: HeuristicIndex, rules: list[str]) -> list[str]:
    """Drop rules whose coverage is contained in another rule's.

    Darwin's hierarchy yields subset/superset rule pairs; a subset rule
    adds nothing to the union label but violates the label model's
    independence assumption badly enough to collapse its EM (tested in
    tests/test_label_model.py). Order-preserving; keeps the superset.
    Coverages are compared as the index's sorted id arrays.
    """
    ids = {r: index.ids(r) for r in rules}

    def strict_subset(a: np.ndarray, b: np.ndarray) -> bool:
        return len(a) < len(b) and bool(np.isin(a, b, assume_unique=True).all())

    out: list[str] = []
    for r in rules:
        if any(strict_subset(ids[r], ids[o]) for o in rules if o != r):
            continue  # strictly contained in some other rule
        if any(np.array_equal(ids[r], ids[o]) for o in out):
            continue  # duplicate coverage of an already-kept rule
        out.append(r)
    return out


def label_matrix(index: HeuristicIndex, rules: list[str], n: int) -> np.ndarray:
    """(n_sentences × n_rules) boolean fire matrix from inverted lists."""
    L = np.zeros((n, len(rules)), dtype=bool)
    for j, r in enumerate(rules):
        L[index.ids(r), j] = True
    return L


def apply_rules(
    corpus_df: DataFrame,
    rules: list[str],
    cfg: SketchConfig = SketchConfig(),
) -> DataFrame:
    """Add one boolean column per rule plus ``weak_label`` (any fire).

    Rules ride to executors in the closure; each sentence is evaluated
    against every rule with the grammar's direct matcher. Output schema:
    ``sid, label, rule_0..rule_{m-1}, weak_label``.
    """
    rule_list = list(rules)
    cols = ", ".join(f"rule_{j} boolean" for j in range(len(rule_list)))
    schema = f"sid long, label int, {cols}, weak_label boolean"

    def _apply(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = {"sid": pdf["sid"].astype("int64"), "label": pdf["label"]}
            fired = np.zeros(len(pdf), dtype=bool)
            for j, rule in enumerate(rule_list):
                col = np.array(
                    [
                        matches_sentence(
                            rule, list(t), list(g), [int(p) for p in pr], cfg
                        )
                        for t, g, pr in zip(pdf["tokens"], pdf["tags"], pdf["parents"])
                    ],
                    dtype=bool,
                )
                out[f"rule_{j}"] = col
                fired |= col
            out["weak_label"] = fired
            yield pd.DataFrame(out)

    return corpus_df.select("sid", "label", "tokens", "tags", "parents").mapInPandas(
        _apply, schema=schema
    )
