"""Word and sentence embeddings (SpaCy-vector substitute).

Two providers with one interface (``dict[word] -> np.ndarray``):

- :func:`word2vec_embeddings` — Spark ML ``Word2Vec`` trained on the
  corpus itself. Words that fill the same template slots co-occur with
  the same contexts and land close together, giving the classifier the
  semantic-generalization ability the paper gets from pretrained
  vectors ('bus' → 'public transport', §3).
- :func:`hashing_embeddings` — deterministic per-word Gaussian vectors
  from a hash; no semantics, but instant and dependency-free. Used by
  the 1M-sentence job (``jobs/scale_1m.py``) and by unit tests where
  only the plumbing is under test.

Sentence features are computed on the driver by
:func:`combined_matrix`: a hashed bag of words next to the sentence
vector, the mean of its word vectors (zero for an empty/OOV sentence).
Only Word2Vec training runs on Spark.

The features are held as :class:`Features`, not as one dense matrix: a
sentence fills at most a handful of the ``hash_dim`` BoW buckets, so the
BoW block is kept as per-row bucket ids and values, next to the dense
embedding block. Many sentences repeat a token sequence (directions:
845 distinct sequences in 15,300 sentences), so the arrays hold one row
per distinct sequence and a sentence → row map. :func:`hashed_bow` and
:func:`sentence_vector` are the dense definitions of the two blocks.
"""
from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from pyspark.sql import DataFrame

DEFAULT_DIM = 32


@dataclass(frozen=True)
class Features:
    """Sentence features ``[hashed BoW ; mean word vector]``, one row per
    distinct token sequence; sentence ``i`` has row ``row[i]``.

    Row ``g`` of the BoW block is nonzero exactly at the buckets
    ``bow_ids[g]``, sorted and distinct, with the values ``bow_vals[g]``.
    ``K`` is the largest bucket count of any row; a row with fewer
    buckets is padded with the sentinel id ``hash_dim`` and value 0, so an
    empty sentence is all sentinel.
    """

    bow_ids: np.ndarray   # (rows, K) int32 bucket ids in [0, hash_dim]
    bow_vals: np.ndarray  # (rows, K) float32 values at those buckets
    dense: np.ndarray     # (rows, dim) float32 mean word vectors
    hash_dim: int
    row: np.ndarray       # (n,) intp: each sentence's row, sid-ordered

    @property
    def nbytes(self) -> int:
        return self.bow_ids.nbytes + self.bow_vals.nbytes + self.dense.nbytes + self.row.nbytes


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


def _bucket(token: str, hash_dim: int) -> int:
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:4], "big") % hash_dim


def hashed_bow(tokens: list[str], hash_dim: int) -> np.ndarray:
    """L2-normalized hashed binary bag-of-words: each distinct bucket
    (colliding tokens count once) is 1/sqrt(#buckets)."""
    v = np.zeros(hash_dim, dtype=np.float32)
    for t in set(tokens):
        v[_bucket(t, hash_dim)] = 1.0
    norm = np.linalg.norm(v)
    return v / norm if norm else v


def combined_matrix(
    token_lists: list[list[str]], emb: dict[str, np.ndarray], dim: int, hash_dim: int = 256
) -> Features:
    """[hashed BoW ; mean word-vector] features, as :class:`Features`.

    The BoW block gives the classifier lexical precision (the Kim-CNN's
    n-gram filters play this role in the paper); the embedding block
    carries the semantic-generalization signal ('bus' → 'public
    transport') that guides the benefit scores. Densified, sentence
    ``ts``'s row is exactly ``hashed_bow(ts) ; sentence_vector(ts)``.

    Each distinct token sequence is featurized once, in order of first
    appearance. Sentences with the same sequence get the same buckets and
    the same summation order, so their rows would be bit-identical; a
    token multiset would not do, since a mean word vector depends on the
    order of its terms.
    """
    seqs: dict[tuple[str, ...], int] = {}
    row = np.fromiter((seqs.setdefault(tuple(ts), len(seqs)) for ts in token_lists),
                      dtype=np.intp, count=len(token_lists))
    n = len(seqs)
    bucket = {t: _bucket(t, hash_dim) for t in set(chain.from_iterable(seqs))}
    # Sorted, so the order of a row's buckets (and with it the classifier's
    # summation order) does not depend on string hashing.
    rows = [sorted({bucket[t] for t in ts}) for ts in seqs]
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    k = int(lens.max(initial=0))
    filled = np.arange(k) < lens[:, None]
    bow_ids = np.full((n, k), hash_dim, dtype=np.int32)
    bow_ids[filled] = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=int(lens.sum()))
    # hashed_bow's float32 value 1/‖v‖ with ‖v‖ = sqrt(#buckets).
    val = np.float32(1) / np.sqrt(np.maximum(lens, 1).astype(np.float32))
    bow_vals = np.zeros((n, k), dtype=np.float32)
    bow_vals[filled] = np.repeat(val, lens)
    dense = np.zeros((n, dim), dtype=np.float32)
    for i, ts in enumerate(seqs):
        dense[i] = sentence_vector(ts, emb, dim)
    return Features(bow_ids, bow_vals, dense, hash_dim, row)
