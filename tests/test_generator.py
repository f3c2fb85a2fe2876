"""Unit tests for the template-corpus engine."""
import numpy as np
import pytest

from repro.corpora.generator import CorpusSpec, Family, annotate, build_corpus, generate_pandas

SPEC = CorpusSpec(
    name="toy",
    n=200,
    pos_frac=0.2,
    families=(
        Family("f1", ("the {x} is here",), 0.5),
        Family("f2", ("find the {x} now",), 0.5),
    ),
    negative_templates=("nothing about {x} today", "plain filler sentence"),
    slots={"x": ("cat", "dog", "bird")},
    seed=7,
)


def test_row_count_and_columns():
    pdf = generate_pandas(SPEC)
    assert len(pdf) == 200
    assert list(pdf.columns) == ["sid", "text", "label", "family"]


def test_positive_fraction_close():
    pdf = generate_pandas(SPEC)
    assert abs(pdf.label.mean() - 0.2) < 0.02


def test_sid_is_dense_and_shuffled():
    pdf = generate_pandas(SPEC)
    assert list(pdf.sid) == list(range(200))
    # Labels must not be sorted by sid (shuffle happened).
    assert pdf.label.iloc[:50].sum() > 0


def test_determinism():
    a, b = generate_pandas(SPEC), generate_pandas(SPEC)
    assert a.equals(b)


def test_seed_changes_output():
    other = CorpusSpec(
        SPEC.name, SPEC.n, SPEC.pos_frac, SPEC.families,
        SPEC.negative_templates, SPEC.slots, seed=8,
    )
    assert not generate_pandas(SPEC).equals(generate_pandas(other))


def test_families_respected():
    pdf = generate_pandas(SPEC)
    pos = pdf[pdf.label == 1]
    assert set(pos.family) <= {"f1", "f2"}
    assert set(pdf[pdf.label == 0].family) == {"_neg"}


def test_slot_filling():
    pdf = generate_pandas(SPEC)
    for t in pdf.text:
        assert "{" not in t and "}" not in t


def test_with_n_resize():
    assert generate_pandas(SPEC.with_n(50)).shape[0] == 50


def test_minimum_two_positives():
    tiny = SPEC.with_n(10)
    pdf = generate_pandas(tiny)
    assert pdf.label.sum() >= 2


def test_annotate_schema(spark):
    df = build_corpus(spark, SPEC.with_n(60))
    rows = df.orderBy("sid").collect()
    assert len(rows) == 60
    for r in rows[:10]:
        assert len(r["tokens"]) == len(r["tags"]) == len(r["parents"])
        assert r["parents"].count(-1) == 1  # single root


def test_annotate_tokens_match_driver_tokenizer(spark):
    from repro.text.tokenizer import word_tokens

    df = build_corpus(spark, SPEC.with_n(40))
    for r in df.orderBy("sid").collect():
        assert list(r["tokens"]) == word_tokens(r["text"])


def test_collect_corpus_orders_by_sid_and_rejects_gaps(spark):
    from repro.eval.pipeline import collect_corpus
    from repro.text.tokenizer import word_tokens

    pdf = generate_pandas(SPEC.with_n(40))
    df = build_corpus(spark, SPEC.with_n(40))
    labels, tokens = collect_corpus(df.orderBy(df.sid.desc()))
    assert labels.dtype == np.int64 and labels.tolist() == pdf.label.tolist()
    assert tokens == [word_tokens(t) for t in pdf.text]
    for bad in (df.filter("sid != 7"), df.union(df.limit(1))):
        with pytest.raises(ValueError, match="sids are not 0"):
            collect_corpus(bad)
