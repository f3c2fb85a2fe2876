"""Tests for word/sentence embeddings."""
import numpy as np
import pytest

from repro.text import embeddings as emb


def test_hashing_deterministic():
    a = emb.hashing_embeddings(["cat", "dog"], dim=16)
    b = emb.hashing_embeddings(["dog", "cat"], dim=16)
    assert np.allclose(a["cat"], b["cat"])
    assert np.allclose(a["dog"], b["dog"])


def test_hashing_unit_norm():
    e = emb.hashing_embeddings(["x"], dim=32)["x"]
    assert abs(np.linalg.norm(e) - 1.0) < 1e-5


def test_sentence_vector_mean():
    e = {"a": np.ones(4, dtype=np.float32), "b": np.zeros(4, dtype=np.float32)}
    v = emb.sentence_vector(["a", "b"], e, 4)
    assert np.allclose(v, 0.5)


def test_sentence_vector_oov():
    assert np.allclose(emb.sentence_vector(["zzz"], {}, 8), 0.0)


def test_hashed_bow_normalized():
    v = emb.hashed_bow(["a", "b", "c"], 64)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-5
    assert np.allclose(emb.hashed_bow([], 64), 0.0)


def test_combined_matrix_blocks():
    e = emb.hashing_embeddings(["a"], dim=8)
    X = emb.combined_matrix([["a"]], e, 8, hash_dim=32)
    assert X.shape == (1, 40)
    assert np.linalg.norm(X[0, :32]) > 0
    assert np.allclose(X[0, 32:], e["a"])


def test_word2vec_trains_and_returns_vectors(spark):
    import pandas as pd

    rows = [["the", "shuttle", "to", "the", "airport"]] * 30 + [
        ["order", "some", "pizza", "now"]
    ] * 30
    df = spark.createDataFrame(pd.DataFrame({"tokens": rows}))
    vocab = emb.word2vec_embeddings(df, dim=8, min_count=2, max_iter=1)
    assert "shuttle" in vocab and "pizza" in vocab
    assert vocab["shuttle"].shape == (8,)
