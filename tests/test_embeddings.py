"""Tests for word/sentence embeddings."""
import numpy as np
import pytest

from repro.text import embeddings as emb


def densify(features):
    """The (rows × hash_dim+dim) float32 matrix of the layout's distinct rows;
    ``densify(f)[f.row]`` is the per-sentence matrix."""
    n, k = features.bow_ids.shape
    X = np.zeros((n, features.hash_dim + 1 + features.dense.shape[1]), dtype=np.float32)
    X[np.repeat(np.arange(n), k), features.bow_ids.ravel()] = features.bow_vals.ravel()
    X[:, features.hash_dim + 1:] = features.dense
    return np.delete(X, features.hash_dim, axis=1)  # the padding sentinel's column


def _dense_combined_matrix(token_lists, e, dim, hash_dim=256):
    """``combined_matrix`` before the sparse BoW layout, kept verbatim as
    the reference."""
    n = len(token_lists)
    out = np.zeros((n, hash_dim + dim), dtype=np.float32)
    for i, ts in enumerate(token_lists):
        out[i, :hash_dim] = emb.hashed_bow(ts, hash_dim)
        out[i, hash_dim:] = emb.sentence_vector(ts, e, dim)
    return out


# "c" and "j" share BoW bucket 3 of 256; "bus", "r" and "w" share 228.
# The last five are a permutation, a repeated-token variant (same BoW
# buckets, different mean vector) and an exact duplicate of "a b c".
SENTENCES = [
    ["take", "the", "bus", "to", "the", "airport"],
    [],
    ["c", "j", "bus", "r", "w"],
    ["zzz-oov"],
    ["the", "the", "the"],
    [f"t{i}" for i in range(12)],
    ["a", "b", "c"],
    ["b", "a", "c"],
    ["a", "a", "b"],
    ["a", "b"],
    ["a", "b", "c"],
]
SENTENCE_ROWS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6]  # first-appearance order


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
    e = emb.hashing_embeddings(["a", "b"], dim=8)
    sents = [["a"], ["b", "a", "oov"], []]
    f = emb.combined_matrix(sents, e, 8, hash_dim=32)
    X = densify(f)[f.row]
    assert X.shape == (3, 40)
    for row, ts in zip(X, sents):
        assert np.array_equal(row, np.concatenate([emb.hashed_bow(ts, 32),
                                                   emb.sentence_vector(ts, e, 8)]))


def test_layout_densifies_to_the_dense_matrix():
    assert emb._bucket("c", 256) == emb._bucket("j", 256)
    assert emb._bucket("bus", 256) == emb._bucket("r", 256) == emb._bucket("w", 256)
    e = emb.hashing_embeddings(["take", "the", "bus", "to", "airport", "c", "t3", "a", "b"],
                               dim=16)
    f = emb.combined_matrix(SENTENCES, e, 16)
    assert f.bow_ids.dtype == np.int32 and f.bow_vals.dtype == np.float32
    assert f.bow_ids.shape == (10, 12)  # K = the most buckets in a row
    assert np.array_equal(densify(f)[f.row], _dense_combined_matrix(SENTENCES, e, 16))


def test_one_row_per_distinct_token_sequence():
    e = emb.hashing_embeddings(["a", "b", "c"], dim=16)
    f = emb.combined_matrix(SENTENCES, e, 16)
    assert f.row.tolist() == SENTENCE_ROWS
    assert len(f.bow_ids) == len(f.bow_vals) == len(f.dense) == max(SENTENCE_ROWS) + 1
    # "a a b" and "a b" share their BoW buckets but not their mean vector.
    assert np.array_equal(f.bow_ids[8], f.bow_ids[9]) and not np.array_equal(f.dense[8], f.dense[9])


def test_layout_rows_are_sorted_distinct_and_padded():
    f = emb.combined_matrix(SENTENCES, {}, 4)
    for i, ts in enumerate(SENTENCES):
        ids, vals = f.bow_ids[f.row[i]], f.bow_vals[f.row[i]]
        used = ids[ids < f.hash_dim]
        assert np.array_equal(used, np.unique([emb._bucket(t, 256) for t in ts]).astype(np.int32))
        assert np.all(ids[len(used):] == f.hash_dim)  # sentinel padding after the buckets
        assert np.all(vals[len(used):] == 0)
        if len(used):
            assert np.all(vals[:len(used)] == np.float32(1) / np.sqrt(np.float32(len(used))))
    assert np.all(f.bow_ids[1] == f.hash_dim)  # the empty sentence: all sentinel
    assert np.array_equal(f.bow_ids[2][:2], [3, 228])  # five tokens, two buckets
    assert f.nbytes == f.bow_ids.nbytes + f.bow_vals.nbytes + f.dense.nbytes + f.row.nbytes


def test_combined_matrix_of_no_sentences():
    f = emb.combined_matrix([], {}, 4)
    assert f.bow_ids.shape == (0, 0) and f.dense.shape == (0, 4) and f.row.shape == (0,)
    assert np.array_equal(densify(f)[f.row], _dense_combined_matrix([], {}, 4))


def test_word2vec_trains_and_returns_vectors(spark):
    import pandas as pd

    rows = [["the", "shuttle", "to", "the", "airport"]] * 30 + [
        ["order", "some", "pizza", "now"]
    ] * 30
    df = spark.createDataFrame(pd.DataFrame({"tokens": rows}))
    vocab = emb.word2vec_embeddings(df, dim=8, min_count=2, max_iter=1)
    assert "shuttle" in vocab and "pizza" in vocab
    assert vocab["shuttle"].shape == (8,)
