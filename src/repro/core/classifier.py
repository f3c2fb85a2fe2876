"""The short-text classifier behind benefit scores (§3.3).

The paper uses a Kim-CNN over pretrained embeddings but states (fn 6)
that "any short text classifier would be ideal for this task", and the
theory (§3.8) only assumes better-than-random scores. We use L2
logistic regression over mean word-embedding sentence vectors — it
retrains in milliseconds, which the per-accept retrain loop (Alg 1
line 10) requires, and generalizes semantically because the features
are corpus-trained Word2Vec (DESIGN.md §2).

The features are computed once (see ``repro.text.embeddings``) and
indexed by sentence id; training samples random negatives from the
unlabeled corpus exactly as §3.3 describes ("sampling random instances
from the corpus as negatives").

The features arrive as :class:`~repro.text.embeddings.Features`: per-row
BoW bucket ids and values next to a dense embedding block. ``fit`` and
``scores`` compute X·w and rᵀX in two parts, a gather plus
``np.bincount`` over the BoW ids and a dense BLAS matvec over the
embedding block, so each epoch costs O(nonzeros + m·dim), not m·288.
This is the dense logistic regression with a different summation order
(weights and scores agree to a few 1e-16). With an empty BoW block
(K = 0) and one row per sentence the arithmetic is exactly the dense
loop's.

Many sentences share a token sequence (directions: 845 distinct
sequences for 15,300 sentences), and ``Features`` holds one row per
distinct sequence, so the classifier keeps float64 copies of those rows
only. Two sentences with the same token sequence have the same BoW
buckets and sum the same word vectors in the same order, so their
features are bit-identical. In the weighted loss, c training rows that
are bit-identical and share a label and sample weight sw contribute c
equal terms to every gradient; one row of weight c·sw contributes the
same sum. ``fit`` therefore draws the training set per sentence and
merges it by (feature row, label), in order of first appearance,
keeping the divisor m = |training set|. Only rounding changes (one
product c·sw where the loop added c terms, in another order), so
weights and scores stay within a few 1e-16 of the per-sentence loop. A
training set with no repeated row runs the same arithmetic, bit for
bit. ``scores`` computes one sigmoid per row and gathers it back to the
sentences, so sentences that share a row score identically.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.text.embeddings import Features


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def _logits(w: np.ndarray, b: float, h: int, bow_ids: np.ndarray, bow_vals: np.ndarray,
            dense: np.ndarray) -> np.ndarray:
    """X·w + b; ``w[:h]`` are the BoW weights (sentinel included)."""
    return dense @ w[h:] + np.einsum("ij,ij->i", w[:h].take(bow_ids), bow_vals) + b


class EmbeddingClassifier:
    """Logistic regression over fixed per-sentence features.

    ``w`` holds ``hash_dim + 1 + dim`` weights: one per BoW bucket, one
    for the padding sentinel (always 0), then the embedding block's.
    """

    def __init__(self, features: Features, *, l2: float = 1e-2,
                 lr: float = 0.5, epochs: int = 200, seed: int = 0,
                 balance: bool = True, neg_ratio: float = 2.0):
        """``balance=True`` (search mode) weighs classes equally so the
        benefit scores are recall-oriented; ``balance=False`` with a
        larger ``neg_ratio`` (final-classifier mode) keeps the sampled
        prior so thresholding at 0.5 is precision-sane under imbalance."""
        # float64 copies of the feature rows; sentence i has row self.row[i].
        # intp ids: take and bincount would convert int32 on every epoch.
        self.row = features.row
        self.bow_ids = features.bow_ids.astype(np.intp)
        self.bow_vals = np.asarray(features.bow_vals, dtype=np.float64)
        self.dense = np.asarray(features.dense, dtype=np.float64)
        self.hash_dim = features.hash_dim
        self.n = len(self.row)
        self.l2, self.lr, self.epochs = l2, lr, epochs
        self.balance, self.neg_ratio = balance, neg_ratio
        self._rng = np.random.default_rng(seed)
        self.w = np.zeros(self.hash_dim + 1 + self.dense.shape[1])
        self.b = 0.0
        self._fitted = False

    def _training_set(
        self, pos_ids: Iterable[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Draw one fit's training set: ``(rows, y, sw, m)``.

        The ``m`` sentences (positives, then sampled negatives) are merged
        by (feature row, label), in order of first appearance; ``sw`` is
        the merged row's sample weight, count·(its class weight).
        """
        pos = np.fromiter(pos_ids, dtype=np.int64)
        bad = pos[(pos < 0) | (pos >= self.n)]
        if len(bad):
            raise ValueError(f"positive ids outside [0, {self.n}): {bad[:10].tolist()}")
        if len(pos) == 0:
            raise ValueError("cannot fit with zero positive instances")
        is_pos = np.zeros(self.n, dtype=bool)
        is_pos[pos] = True
        if np.count_nonzero(is_pos) < len(pos):
            _, first = np.unique(pos, return_index=True)
            pos = pos[np.sort(first)]  # first occurrences, in the given order
        k = min(self.n - len(pos), max(int(self.neg_ratio * len(pos)), 50))
        neg = self._rng.choice(np.flatnonzero(~is_pos), size=k, replace=False)
        ids = np.concatenate([pos, neg])
        y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        if self.balance and len(neg):
            # Balance classes through sample weights so imbalance in the
            # sampled negatives does not swamp the gradient. With no
            # negatives (P covers the corpus) there is nothing to balance.
            w_pos, w_neg = len(ids) / (2 * len(pos)), len(ids) / (2 * len(neg))
            sw = np.where(y == 1, w_pos, w_neg)
        else:
            sw = np.ones(len(ids))
        rows = self.row[ids]
        _, at, count = np.unique(2 * rows + (y == 0), return_index=True, return_counts=True)
        order = np.argsort(at)
        at = at[order]
        return rows[at], y[at], count[order] * sw[at], len(ids)

    def fit(self, pos_ids: Iterable[int]) -> "EmbeddingClassifier":
        """Train on discovered positives vs sampled negatives.

        Samples ``max(neg_ratio·|pos|, 50)`` ids uniformly from outside
        ``pos_ids`` — noisy but adequate under class imbalance, as in
        the paper. Repeated ids count once; ids outside ``[0, n)`` raise
        a ``ValueError``.
        """
        rows, y, sw, m = self._training_set(pos_ids)
        h = self.hash_dim + 1
        bow_ids, bow_vals, dense = self.bow_ids[rows], self.bow_vals[rows], self.dense[rows]
        flat_ids = bow_ids.ravel()
        w, b = np.zeros_like(self.w), 0.0
        g = np.empty_like(w)
        for _ in range(self.epochs):
            p = _sigmoid(_logits(w, b, h, bow_ids, bow_vals, dense))
            r = sw * (p - y)
            # rᵀX in two parts; padding slots add 0 to the sentinel's bin.
            g[:h] = np.bincount(flat_ids, weights=(r[:, None] * bow_vals).ravel(), minlength=h)
            np.matmul(r, dense, out=g[h:])
            g /= m
            g += self.l2 * w
            w -= self.lr * g
            b -= self.lr * float(r.sum() / m)  # np.mean(r) over the m sentences
        self.w, self.b, self._fitted = w, b, True
        return self

    def scores(self) -> np.ndarray:
        """P(positive) for every sentence, computed once per distinct
        feature row."""
        if not self._fitted:
            # Untrained classifier = uninformative prior 0.5 (better-than-
            # random kicks in only after the first fit), matching §3.8's
            # "initial iterations" regime.
            return np.full(self.n, 0.5)
        logits = _logits(self.w, self.b, self.hash_dim + 1, self.bow_ids, self.bow_vals,
                         self.dense)
        return _sigmoid(logits)[self.row]
