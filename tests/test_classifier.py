"""Tests for the embedding logistic-regression classifier."""
import numpy as np
import pytest

from repro.core.classifier import EmbeddingClassifier


def _separable(n=200, d=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, 0] > 0).astype(int)
    X[:, 0] += np.where(y == 1, 1.5, -1.5)
    return X, y


def test_unfitted_scores_are_half():
    X, _ = _separable()
    clf = EmbeddingClassifier(X)
    assert np.allclose(clf.scores(), 0.5)


def test_fit_separable_data():
    X, y = _separable()
    clf = EmbeddingClassifier(X, seed=1)
    clf.fit(set(np.nonzero(y)[0].tolist()), set(np.nonzero(y == 0)[0].tolist()))
    acc = ((clf.scores() >= 0.5) == y).mean()
    assert acc > 0.95


def test_fit_with_sampled_negatives():
    X, y = _separable(n=400)
    clf = EmbeddingClassifier(X, seed=2)
    clf.fit(set(np.nonzero(y)[0].tolist()))
    assert ((clf.scores() >= 0.5) == y).mean() > 0.85


def test_fit_requires_positives():
    X, _ = _separable()
    with pytest.raises(ValueError):
        EmbeddingClassifier(X).fit(set())


def test_scores_subset():
    X, y = _separable()
    clf = EmbeddingClassifier(X, seed=0)
    clf.fit(set(np.nonzero(y)[0].tolist()))
    ids = np.array([0, 5, 9])
    assert np.allclose(clf.scores(ids), clf.scores()[ids])


def test_determinism_same_seed():
    X, y = _separable()
    pos = set(np.nonzero(y)[0].tolist())
    a = EmbeddingClassifier(X, seed=3).fit(pos).scores()
    b = EmbeddingClassifier(X, seed=3).fit(pos).scores()
    assert np.allclose(a, b)


def test_balance_flag_changes_decision_rate():
    """Unbalanced mode with a large negative ratio predicts fewer
    positives under imbalance (the final-classifier regime)."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1000, 6))
    y = (X[:, 0] + 0.5 * rng.standard_normal(1000) > 1.8).astype(int)  # ~4% positives
    pos = set(np.nonzero(y)[0].tolist())
    bal = EmbeddingClassifier(X, seed=5, balance=True).fit(pos)
    unbal = EmbeddingClassifier(X, seed=5, balance=False, neg_ratio=6.0).fit(pos)
    assert (unbal.scores() >= 0.5).sum() <= (bal.scores() >= 0.5).sum()


def test_scores_are_probabilities():
    X, y = _separable()
    clf = EmbeddingClassifier(X, seed=0).fit(set(np.nonzero(y)[0].tolist()))
    s = clf.scores()
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_fit_when_positives_cover_everything():
    # No negatives can be sampled: the fit skips class weighting.
    X, _ = _separable(n=10)
    clf = EmbeddingClassifier(X).fit(set(range(10)))
    assert np.all(clf.scores() > 0.5)
