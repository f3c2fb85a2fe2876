"""Weak-label production: apply discovered rules to a corpus.

- :func:`label_matrix` — driver-side (n × m) boolean matrix from the
  index's inverted lists, consumed by the snorkel-lite label model;
- :func:`apply_rules` — rule application over the (annotated) corpus
  DataFrame as one Spark SQL projection: every rule compiled to a
  boolean column over ``tokens``, ``tags`` and ``parents``, with no
  Python worker (the 1M-sentence profession job). It never reads the
  index, so it is also an independent check of the index's inverted
  lists: every Darwin rule is an indexed key, and both fire on the same
  sentences.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.grammar.base import column
from repro.index.inverted import HeuristicIndex
from repro.index.sketch import SketchConfig


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

    Each rule is compiled on the driver to a Spark SQL column
    (:func:`repro.grammar.base.column`), so the executors run no Python.
    A key that cannot be compiled raises a ``ValueError`` naming it,
    here. With no rules, ``weak_label`` is false everywhere. Output
    schema: ``sid, label, rule_0..rule_{m-1}, weak_label``.
    """
    names = [f"rule_{j}" for j in range(len(rules))]
    fired = [column(rule, cfg.max_gap).alias(name) for rule, name in zip(rules, names)]
    # Only our own column names enter this SQL text.
    weak = F.expr(" OR ".join(names) or "false")
    return corpus_df.select("sid", "label", *fired).withColumn("weak_label", weak)
