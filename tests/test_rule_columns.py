"""Every key compiled to a Spark SQL column (``repro.grammar.base.column``)
equals the Python reference matcher on every sentence."""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.corpora.datasets import musicians
from repro.eval.pipeline import prepare
from repro.grammar import ROOT, tokensregex
from repro.grammar.base import column
from repro.index.sketch import SketchConfig
from repro.text.depparse import parse
from repro.text.pos import tag
from tests.matching import matches_sentence
from tests.test_loop_properties import _toy_sentences

SCHEMA = "i long, tokens array<string>, tags array<string>, parents array<int>"
CHUNK = 250  # keys per select


def _parsed(tokens: list[str]) -> tuple[list[str], list[str], list[int]]:
    tags = tag(tokens)
    return tokens, tags, parse(tokens, tags)


def _distinct_sentences(corpus_df) -> list[tuple[list[str], list[str], list[int]]]:
    """The corpus' distinct (tokens, tags, parents): both matchers are
    functions of these, so agreeing on each agrees on every sentence."""
    rows = corpus_df.select("tokens", "tags", "parents").distinct().collect()
    return sorted((list(r["tokens"]), list(r["tags"]), list(r["parents"])) for r in rows)


def _assert_compiled_equals_reference(spark, sentences, keys, max_gap: int) -> None:
    df = spark.createDataFrame(
        [(i, *s) for i, s in enumerate(sentences)], SCHEMA).coalesce(1).cache()
    cfg = SketchConfig(max_gap=max_gap)
    # Building a column is a few hundred Py4J round trips; threads overlap them.
    pool = ThreadPoolExecutor(4)
    try:
        for lo in range(0, len(keys), CHUNK):
            chunk = keys[lo:lo + CHUNK]
            hits = F.array(*pool.map(lambda k: column(k, max_gap), chunk)).alias("hits")
            got = [r["hits"] for r in df.select("i", hits).orderBy("i").collect()]
            for j, key in enumerate(chunk):
                want = [matches_sentence(key, *s, cfg) for s in sentences]
                have = [row[j] for row in got]
                bad = [s[0] for s, w, h in zip(sentences, want, have) if w is not h]
                assert not bad, (key, bad[:3])
    finally:
        pool.shutdown()
        df.unpersist()


def test_toy_corpus_keys(spark):
    rng = np.random.default_rng(20240)
    for _ in range(3):
        sentences = [_parsed(tokens) for tokens in _toy_sentences(rng)]
        keys = sorted(set().union(*(tokensregex.sketch(t, max_len=3, max_gap=2)
                                    for t, _, _ in sentences)))
        _assert_compiled_equals_reference(spark, sentences, keys, max_gap=2)


def test_directions_index_keys(spark, prep_directions):
    prep = prep_directions
    _assert_compiled_equals_reference(
        spark, _distinct_sentences(prep.corpus_df), prep.index.keys(), prep.cfg.max_gap)


def test_musicians_treematch_index_keys(spark):
    prep = prepare(spark, musicians(n=50), cfg=SketchConfig(max_len=4, use_treematch=True))
    keys = prep.index.keys()
    assert sum(k.startswith("tm:") for k in keys) > 500
    for form in ("//", "/", "&"):
        assert any(form in k for k in keys if k.startswith("tm:")), form
    _assert_compiled_equals_reference(
        spark, _distinct_sentences(prep.corpus_df), keys, prep.cfg.max_gap)


def test_hand_made_cases(spark):
    sentences = [
        _parsed(["it", "'s", "o'hare", "'"]),
        ([], [], []),
        _parsed(["a"]),
        _parsed(["a", "b"]),
        _parsed(["a", "x", "b"]),
        _parsed(["a", "x", "y", "z", "b"]),
        _parsed(["a", "x", "y", "b", "a"]),
        _parsed(["the", "band", "plays", "in", "the", "city", "of", "rock"]),
    ]
    keys = [
        ROOT,
        "tr:o'hare", "tr:'s o'hare '", "tr:it * '", "tr:'", "tr:it 's o'hare ' a",
        "tr:a", "tr:a b", "tr:a b c", "tr:b a", "tr:x y z b a",
        "tr:a * b", "tr:x * a", "tr:y * a", "tr:a * a", "tr:b * a",
        "tm:t=o'hare", "tm:p=NOUN", "tm:t=plays/t=band", "tm:t=band/t=plays",
        "tm:t=plays//t=rock", "tm:t=in//t=rock", "tm:t=rock//t=in",
        "tm:p=VERB//p=NOUN", "tm:t=plays/p=ADP&t=city", "tm:t=plays/p=ADP&t=jazz",
        "tm:t=a/t=b", "tm:t=a//t=a",
    ]
    for max_gap in (1, 3):
        _assert_compiled_equals_reference(spark, sentences, keys, max_gap)


@pytest.mark.parametrize("key", ["tm:q=a", "tm:t=a/t=b/t=c", "tm:t=a//p=X//t=b", "tm:t=a/b"])
def test_uncompilable_treematch_key_is_named(key):
    with pytest.raises(ValueError, match="cannot compile TreeMatch key"):
        column(key, 3)
