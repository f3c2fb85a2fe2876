"""Tests for distributed sketching and the inverted index, including
DuckDB oracle checks on every Spark aggregation."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.corpora.datasets import directions
from repro.corpora.generator import build_corpus
from repro.grammar.base import ROOT
from repro.index.inverted import HeuristicIndex, index_df
from repro.index.sketch import SketchConfig, sentence_sketch, sketch_df
from repro.oracle import assert_equivalent
from tests.matching import matches_sentence


@pytest.fixture(scope="module")
def small_corpus(spark):
    return build_corpus(spark, directions(n=400)).cache()


@pytest.fixture(scope="module")
def small_sketch(small_corpus):
    return sketch_df(small_corpus, SketchConfig(max_len=3, max_gap=2)).cache()


def test_sketch_df_matches_driver_sketch(small_corpus, small_sketch):
    cfg = SketchConfig(max_len=3, max_gap=2)
    rows = small_corpus.select("sid", "tokens", "tags", "parents").orderBy("sid").collect()
    driver = {
        r["sid"]: sentence_sketch(list(r["tokens"]), list(r["tags"]), list(r["parents"]), cfg)
        for r in rows[:25]
    }
    got = (
        small_sketch.filter(F.col("sid") < 25)
        .groupBy("sid")
        .agg(F.collect_set("key").alias("keys"))
        .collect()
    )
    for r in got:
        assert set(r["keys"]) == driver[r["sid"]]


def test_index_counts_vs_duckdb(small_sketch):
    """The index aggregation must equal a DuckDB GROUP BY on the same rows."""
    got = index_df(small_sketch).select("key", "count")
    assert_equivalent(
        got,
        "SELECT key, count(*) AS count FROM sk GROUP BY key",
        sk=small_sketch,
    )


def test_index_min_count_filter_vs_duckdb(small_sketch):
    got = index_df(small_sketch, min_count=3).select("key", "count")
    assert_equivalent(
        got,
        "SELECT key, count(*) AS count FROM sk GROUP BY key HAVING count(*) >= 3",
        sk=small_sketch,
    )


def test_inverted_lists_consistent_with_counts(small_sketch):
    idx = HeuristicIndex.from_sketch(small_sketch, 400, min_count=2)
    for key in list(idx.keys())[:200]:
        assert idx.count(key) == len(idx.coverage(key))
        assert idx.count(key) >= 2


def test_coverage_ids_actually_match(small_corpus, small_sketch):
    """Inverted lists point at sentences that really satisfy the rule
    (independent check through the grammar's direct matcher)."""
    cfg = SketchConfig(max_len=3, max_gap=2)
    idx = HeuristicIndex.from_sketch(small_sketch, 400, min_count=2)
    rows = {r["sid"]: r for r in small_corpus.collect()}
    rng = np.random.default_rng(0)
    keys = rng.choice(np.array(idx.keys(), dtype=object), size=30, replace=False)
    for key in keys:
        for sid in list(idx.coverage(key))[:5]:
            r = rows[sid]
            assert matches_sentence(
                key, list(r["tokens"]), list(r["tags"]), list(r["parents"]), cfg
            ), (key, r["text"])


def test_root_semantics():
    idx = HeuristicIndex({"tr:a": frozenset({0})}, n_sentences=3)
    assert ROOT in idx
    assert idx.count(ROOT) == 3
    assert idx.coverage(ROOT) == frozenset({0, 1, 2})
    assert idx.children(ROOT) == ["tr:a"]


def test_children_parents_inverse(small_sketch):
    idx = HeuristicIndex.from_sketch(small_sketch, 400, min_count=2)
    for key in list(idx.keys())[:100]:
        for child in idx.children(key):
            assert key in idx.parents(child)


def test_parent_coverage_superset_in_index(small_sketch):
    """Hierarchy invariant (§3.2): a parent's coverage contains its
    child's (both restricted to the index)."""
    idx = HeuristicIndex.from_sketch(small_sketch, 400, min_count=2)
    checked = 0
    for key in idx.keys():
        for p in idx.parents(key):
            if p != ROOT:
                assert idx.coverage(key) <= idx.coverage(p), (key, p)
                checked += 1
        if checked > 300:
            break
    assert checked > 50


def test_index_independent_of_shuffle_partitions(spark, small_sketch):
    """Same keys() order, offsets, ids, forward CSR and walk rank at 4
    and 64 shuffle partitions."""
    before = spark.conf.get("spark.sql.shuffle.partitions")
    built = []
    try:
        for parts in (4, 64):
            spark.conf.set("spark.sql.shuffle.partitions", str(parts))
            built.append(HeuristicIndex.from_sketch(small_sketch, 400, min_count=2))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", before)
    a, b = built
    assert a.keys() == b.keys() == sorted(a.keys())
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.postings, b.postings)
    np.testing.assert_array_equal(a.sentence_offsets, b.sentence_offsets)
    np.testing.assert_array_equal(a.sentence_rows, b.sentence_rows)
    np.testing.assert_array_equal(a.walk_order, b.walk_order)
    assert len(a.walk_order) == len(a)  # every key of a sketched index is reachable
    for key in a.keys():
        assert (np.diff(a.ids(key)) > 0).all(), key


def test_index_runs_the_sketch_once(spark):
    """The index is one aggregation over the sketch rows, so its
    physical plan runs the Python sketch (a ``MapInPandas``) once."""
    corpus = spark.createDataFrame(
        [(0, ["a", "b"], ["DT", "NN"], [-1, 0]), (1, ["a"], ["DT"], [-1])],
        "sid long, tokens array<string>, tags array<string>, parents array<int>",
    )
    df = index_df(sketch_df(corpus))
    plan = df._jdf.queryExecution().executedPlan().toString()
    assert plan.count("MapInPandas") == 1, plan
    assert {r["key"]: list(r["ids"]) for r in df.collect()} == {
        "tr:a": [0, 1], "tr:b": [0], "tr:a b": [0]
    }


def test_treematch_keys_present_when_enabled(spark):
    corpus = build_corpus(spark, directions(n=120))
    sk = sketch_df(corpus, SketchConfig(use_treematch=True, max_len=2, max_gap=0))
    keys = [r["key"] for r in sk.select("key").distinct().collect()]
    assert any(k.startswith("tm:") for k in keys)
    assert any(k.startswith("tr:") for k in keys)
