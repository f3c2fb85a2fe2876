"""Correctness checks, run outside the timed region.

Each check raises ``CheckFailed`` with a reason; the runner counts a
failure against ``attempted`` and the command exits non-zero. No check
is ever skipped.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.index.sketch import sketch_df
from repro.oracle import assert_equivalent

# About 1/64 of the keys, chosen by a hash that is fixed across processes.
KEY_SAMPLE_MOD = 64
PRECISION_BAR = 0.8


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def index_counts(spark, prep, min_count: int) -> tuple[int, int]:
    """``HeuristicIndex.count`` equals a DuckDB GROUP BY over the sketch rows.

    Returns (index keys compared, sketch rows).
    """
    sk = sketch_df(prep.corpus_df, prep.cfg).cache()
    try:
        sketch_rows = sk.count()
        sample = sk.filter(F.abs(F.xxhash64("key")) % KEY_SAMPLE_MOD == 0).toPandas()
    finally:
        sk.unpersist()
    keys = sorted(k for k in set(sample["key"]) if k in prep.index)
    got = pd.DataFrame({"key": keys,
                        "count": [prep.index.count(k) for k in keys]})
    _require(len(keys) > 0, "key sample holds no index key")
    try:
        assert_equivalent(
            spark.createDataFrame(got, schema="key string, count long"),
            "SELECT key, count(*) AS count FROM sk GROUP BY key "
            f"HAVING count(*) >= {int(min_count)}",
            sk=sample,
        )
    except AssertionError as e:
        raise CheckFailed(f"index counts differ from DuckDB: {e}") from e
    return len(keys), sketch_rows


def corpus_matches_spec(prep) -> None:
    spec = prep.spec
    _require(prep.n == spec.n, f"corpus has {prep.n} rows, spec says {spec.n}")
    n_pos = int(prep.labels.sum())
    _require(abs(n_pos - spec.n * spec.pos_frac) <= 1,
             f"{n_pos} positives, spec says {spec.pos_frac:.2%} of {spec.n}")


def weak_labels_match_index(weak_sids: set[int], prep, rules: list[str]) -> None:
    """``apply_rules``'s weak labels equal the union of index coverage."""
    union: set[int] = set()
    for r in rules:
        union |= prep.index.coverage(r)
    _require(weak_sids == union,
             f"apply_rules labels {len(weak_sids)} sentences, the index "
             f"covers {len(union)} ({len(weak_sids ^ union)} differ)")


def session_invariants(res, prep, *, budget: int, seed_rule: str) -> None:
    hist = res.history
    _require(len(hist) <= budget, f"{len(hist)} queries over budget {budget}")
    asked = [h["key"] for h in hist]
    _require(len(asked) == len(set(asked)), "a key was asked twice")
    _require(seed_rule not in asked, "the seed rule was asked")
    labels = prep.labels
    for r in res.rules:
        ids = np.fromiter(prep.index.coverage(r), dtype=np.int64)
        prec = float(labels[ids].mean()) if len(ids) else 0.0
        _require(r == seed_rule or prec >= PRECISION_BAR,
                 f"accepted rule {r!r} has precision {prec:.3f}")
    yes = [h["key"] for h in hist if h["answer"]]
    _require(res.rules == [seed_rule] + yes, "rules differ from the YES answers")
    union: set[int] = set()
    for r in res.rules:
        union |= prep.index.coverage(r)
    _require(res.positives == union, "P differs from the union of rule coverage")
    curve = [r for _, r in res.recall_curve()]
    _require(all(a <= b for a, b in zip(curve, curve[1:])),
             "recall curve is not monotone")
