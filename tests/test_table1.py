"""Reproduction checks for Table 1 (dataset statistics)."""
import pytest
from pyspark.sql import functions as F

from repro.corpora.datasets import ALL_DATASETS, PAPER_TABLE1
from repro.corpora.generator import generate_pandas
from repro.eval.experiments import table1
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def t1(spark):
    # Scaled-down corpora: the stats (fractions) are scale-invariant.
    n = {name: 1500 for name in ALL_DATASETS}
    return table1(spark, n_override=n)


def test_all_rows_present(t1):
    assert set(t1.dataset) == set(ALL_DATASETS)


def test_positive_fractions_match_paper(t1):
    for _, r in t1.iterrows():
        assert abs(r.pct_positives - r.paper_pct_positives) < 1.2, r.dataset


def test_labeling_column_matches_paper(t1):
    for _, r in t1.iterrows():
        assert r.labeling == PAPER_TABLE1[r.dataset]["labeling"]


def test_sentence_counts(t1):
    assert (t1.sentences == 1500).all()


def test_stats_vs_duckdb(spark):
    """The Spark stats aggregation agrees with DuckDB on the frame
    ``table1`` aggregates: the generated, unannotated sentences."""
    corpus = spark.createDataFrame(generate_pandas(ALL_DATASETS["tweets"]().with_n(800)))
    got = corpus.agg(
        F.count("sid").alias("sentences"),
        F.sum("label").alias("n_pos"),
    )
    assert_equivalent(
        got,
        "SELECT count(sid) AS sentences, sum(label) AS n_pos FROM c",
        c=corpus.select("sid", "label"),
    )
