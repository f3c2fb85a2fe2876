"""The short-text classifier behind benefit scores (§3.3).

The paper uses a Kim-CNN over pretrained embeddings but states (fn 6)
that "any short text classifier would be ideal for this task", and the
theory (§3.8) only assumes better-than-random scores. We use L2
logistic regression over mean word-embedding sentence vectors — it
retrains in milliseconds, which the per-accept retrain loop (Alg 1
line 10) requires, and generalizes semantically because the features
are corpus-trained Word2Vec (DESIGN.md §2).

The feature matrix is computed once (by Spark, see
``repro.text.embeddings``) and indexed by sentence id; training samples
random negatives from the unlabeled corpus exactly as §3.3 describes
("sampling random instances from the corpus as negatives").
"""
from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


class EmbeddingClassifier:
    """Logistic regression over a fixed (n_sentences × dim) feature matrix."""

    def __init__(self, features: np.ndarray, *, l2: float = 1e-2,
                 lr: float = 0.5, epochs: int = 200, seed: int = 0,
                 balance: bool = True, neg_ratio: float = 2.0):
        """``balance=True`` (search mode) weighs classes equally so the
        benefit scores are recall-oriented; ``balance=False`` with a
        larger ``neg_ratio`` (final-classifier mode) keeps the sampled
        prior so thresholding at 0.5 is precision-sane under imbalance."""
        self.X = np.asarray(features, dtype=np.float64)
        self.n, self.d = self.X.shape
        self.l2, self.lr, self.epochs = l2, lr, epochs
        self.balance, self.neg_ratio = balance, neg_ratio
        self._rng = np.random.default_rng(seed)
        self.w = np.zeros(self.d)
        self.b = 0.0
        self._fitted = False

    def fit(self, pos_ids: set[int], neg_ids: set[int] | None = None) -> "EmbeddingClassifier":
        """Train on discovered positives vs (sampled) negatives.

        With no explicit negatives, samples ``max(2·|pos|, 50)`` ids
        uniformly from outside ``pos_ids`` — noisy but adequate under
        class imbalance, as in the paper.
        """
        pos = np.fromiter(pos_ids, dtype=np.int64)
        if len(pos) == 0:
            raise ValueError("cannot fit with zero positive instances")
        if neg_ids is None:
            k = min(self.n - len(pos), max(int(self.neg_ratio * len(pos)), 50))
            pool = np.setdiff1d(np.arange(self.n), pos, assume_unique=False)
            neg = self._rng.choice(pool, size=k, replace=False)
        else:
            neg = np.fromiter(neg_ids, dtype=np.int64)
        ids = np.concatenate([pos, neg])
        y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        X = self.X[ids]
        if self.balance and len(neg):
            # Balance classes through sample weights so imbalance in the
            # sampled negatives does not swamp the gradient. With no
            # negatives (P covers the corpus) there is nothing to balance.
            w_pos, w_neg = len(ids) / (2 * len(pos)), len(ids) / (2 * len(neg))
            sw = np.where(y == 1, w_pos, w_neg)
        else:
            sw = np.ones(len(ids))

        w, b = np.zeros(self.d), 0.0
        for _ in range(self.epochs):
            p = _sigmoid(X @ w + b)
            g = (sw * (p - y)) @ X / len(ids) + self.l2 * w
            gb = float(np.mean(sw * (p - y)))
            w -= self.lr * g
            b -= self.lr * gb
        self.w, self.b, self._fitted = w, b, True
        return self

    def scores(self, ids: np.ndarray | None = None) -> np.ndarray:
        """P(positive) for every sentence (or the given ids)."""
        X = self.X if ids is None else self.X[np.asarray(ids, dtype=np.int64)]
        if not self._fitted:
            # Untrained classifier = uninformative prior 0.5 (better-than-
            # random kicks in only after the first fit), matching §3.8's
            # "initial iterations" regime.
            return np.full(X.shape[0], 0.5)
        return _sigmoid(X @ self.w + self.b)


class ScriptedClassifier:
    """Test double: returns a fixed score vector; ``fit`` is a no-op.

    Lets traversal unit tests pin each branch of Algorithms 3–5 without
    depending on LR convergence.
    """

    def __init__(self, scores: np.ndarray):
        self._scores = np.asarray(scores, dtype=np.float64)
        self.n = len(self._scores)
        self.fit_calls = 0

    def fit(self, pos_ids, neg_ids=None) -> "ScriptedClassifier":
        self.fit_calls += 1
        return self

    def scores(self, ids: np.ndarray | None = None) -> np.ndarray:
        return self._scores if ids is None else self._scores[np.asarray(ids, dtype=np.int64)]
