"""Word and sentence embeddings (SpaCy-vector substitute).

Two providers with one interface (``dict[word] -> np.ndarray``):

- :func:`word2vec_embeddings` — Spark ML ``Word2Vec`` trained on the
  corpus itself. Words that fill the same template slots co-occur with
  the same contexts and land close together, giving the classifier the
  semantic-generalization ability the paper gets from pretrained
  vectors ('bus' → 'public transport', §3).
- :func:`hashing_embeddings` — deterministic per-word Gaussian vectors
  from a hash; no semantics, but instant and dependency-free. Used by
  the 1M-sentence job (``jobs/scale_1m.py``, its default) and by unit
  tests where only the plumbing is under test.

Sentence features are computed on the driver by
:func:`combined_matrix`: a hashed bag of words next to the sentence
vector, the mean of its word vectors (zero for an empty/OOV sentence).
Only Word2Vec training runs on Spark.
"""
from __future__ import annotations

import hashlib
from collections.abc import Iterable

import numpy as np
from pyspark.sql import DataFrame

DEFAULT_DIM = 32


def hashing_embeddings(words: Iterable[str], dim: int = DEFAULT_DIM) -> dict[str, np.ndarray]:
    """Deterministic pseudo-random unit vectors, keyed only on the word."""
    out: dict[str, np.ndarray] = {}
    for w in words:
        if w in out:
            continue
        seed = int.from_bytes(hashlib.sha256(w.encode()).digest()[:8], "big")
        v = np.random.default_rng(seed).standard_normal(dim)
        out[w] = (v / np.linalg.norm(v)).astype(np.float32)
    return out


def word2vec_embeddings(
    corpus_df: DataFrame,
    *,
    tokens_col: str = "tokens",
    dim: int = DEFAULT_DIM,
    min_count: int = 2,
    max_iter: int = 2,
    seed: int = 13,
) -> dict[str, np.ndarray]:
    """Train Spark ML Word2Vec on ``corpus_df[tokens_col]`` → word dict."""
    from pyspark.ml.feature import Word2Vec

    model = Word2Vec(
        vectorSize=dim,
        minCount=min_count,
        maxIter=max_iter,
        seed=seed,
        inputCol=tokens_col,
        outputCol="_w2v",
    ).fit(corpus_df.select(tokens_col))
    vecs = model.getVectors().toPandas()
    return {
        r["word"]: np.asarray(r["vector"], dtype=np.float32)
        for _, r in vecs.iterrows()
    }


def sentence_vector(tokens: list[str], emb: dict[str, np.ndarray], dim: int) -> np.ndarray:
    """Mean word vector of a sentence (zeros if nothing is in-vocab)."""
    vs = [emb[t] for t in tokens if t in emb]
    if not vs:
        return np.zeros(dim, dtype=np.float32)
    return np.mean(vs, axis=0).astype(np.float32)


def hashed_bow(tokens: list[str], hash_dim: int) -> np.ndarray:
    """L2-ish normalized hashed binary bag-of-words (driver/executor safe)."""
    v = np.zeros(hash_dim, dtype=np.float32)
    for t in set(tokens):
        h = int.from_bytes(hashlib.sha256(t.encode()).digest()[:4], "big")
        v[h % hash_dim] = 1.0
    norm = np.linalg.norm(v)
    return v / norm if norm else v


def combined_matrix(
    token_lists: list[list[str]], emb: dict[str, np.ndarray], dim: int, hash_dim: int = 256
) -> np.ndarray:
    """[hashed BoW ; mean word-vector] features.

    The BoW block gives the classifier lexical precision (the Kim-CNN's
    n-gram filters play this role in the paper); the embedding block
    carries the semantic-generalization signal ('bus' → 'public
    transport') that guides the benefit scores.
    """
    n = len(token_lists)
    out = np.zeros((n, hash_dim + dim), dtype=np.float32)
    for i, ts in enumerate(token_lists):
        out[i, :hash_dim] = hashed_bow(ts, hash_dim)
        out[i, hash_dim:] = sentence_vector(ts, emb, dim)
    return out
