"""Snorkel-lite: a generative label model for de-noising rule votes.

Darwin's rules are positive-or-abstain labeling functions. Snorkel's
label model, under conditional independence, reduces for this vote
space to a Bernoulli naive-Bayes mixture with a latent class: each rule
``r`` fires with probability ``p1_r`` on a positive sentence and
``p0_r`` on a negative one; the class prior is ``π``. We fit (π, p1,
p0) by EM on the fire matrix and label each sentence with the
posterior P(y=1 | votes) — the same quantity Snorkel's label model
estimates (DESIGN.md §2). Majority vote (:func:`majority_vote`) is the
undenosied comparison point.
"""
from __future__ import annotations

import numpy as np

_EPS = 1e-6


class LabelModel:
    """EM-fit naive-Bayes label model over an (n × m) boolean fire matrix."""

    def __init__(self, *, n_iter: int = 50, tol: float = 1e-6, seed: int = 0):
        self.n_iter = n_iter
        self.tol = tol
        self.seed = seed
        self.pi: float = 0.5
        self.p1: np.ndarray | None = None
        self.p0: np.ndarray | None = None

    def fit(self, L: np.ndarray) -> "LabelModel":
        """Estimate parameters from votes alone (no ground truth)."""
        L = np.asarray(L, dtype=float)
        n, m = L.shape
        # Initialize from the heuristic posterior "any rule fired".
        q = np.where(L.any(axis=1), 0.9, 0.1)
        pi, p1, p0 = q.mean(), None, None
        prev = -np.inf
        for _ in range(self.n_iter):
            w1, w0 = q.sum(), (1 - q).sum()
            p1 = np.clip((q @ L) / max(w1, _EPS), _EPS, 1 - _EPS)
            p0 = np.clip(((1 - q) @ L) / max(w0, _EPS), _EPS, 1 - _EPS)
            pi = float(np.clip(q.mean(), _EPS, 1 - _EPS))
            log1 = np.log(pi) + L @ np.log(p1) + (1 - L) @ np.log(1 - p1)
            log0 = np.log1p(-pi) + L @ np.log(p0) + (1 - L) @ np.log(1 - p0)
            mx = np.maximum(log1, log0)
            ll = float((mx + np.log(np.exp(log1 - mx) + np.exp(log0 - mx))).sum())
            q = 1.0 / (1.0 + np.exp(np.clip(log0 - log1, -30, 30)))
            if abs(ll - prev) < self.tol * n:
                break
            prev = ll
        self.pi, self.p1, self.p0 = pi, p1, p0
        self._posterior = q
        return self

    def predict_proba(self) -> np.ndarray:
        """Posterior P(y=1 | votes) per sentence of the fitted matrix."""
        return self._posterior


def majority_vote(L: np.ndarray) -> np.ndarray:
    """Union label: positive iff any rule fires (the raw Darwin labels)."""
    return np.asarray(L, dtype=bool).any(axis=1).astype(np.int64)
