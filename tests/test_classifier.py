"""Tests for the embedding logistic-regression classifier."""
import re

import numpy as np
import pytest

from repro.core.classifier import EmbeddingClassifier, _sigmoid
from tests.test_embeddings import densify

# The layout sums X·w and rᵀX in another order than the dense loop. In
# float64 (eps 2.2e-16) each of the 200 epochs reorders sums of at most
# 289 O(1) terms, so the weights and scores may differ by a few thousand
# eps at most; this bound was fixed before the comparison was run.
LAYOUT_TOL = 1e-12


def _reference_fit(X, pos_ids, *, l2=1e-2, lr=0.5, epochs=200, seed=0,
                   balance=True, neg_ratio=2.0):
    """The dense fit loop before the sparse BoW layout, kept verbatim as
    the reference: returns (w, b, scores of every row)."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    pos = np.fromiter(pos_ids, dtype=np.int64)
    k = min(n - len(pos), max(int(neg_ratio * len(pos)), 50))
    pool = np.setdiff1d(np.arange(n), pos, assume_unique=False)
    neg = rng.choice(pool, size=k, replace=False)
    ids = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    Xs = X[ids]
    if balance and len(neg):
        w_pos, w_neg = len(ids) / (2 * len(pos)), len(ids) / (2 * len(neg))
        sw = np.where(y == 1, w_pos, w_neg)
    else:
        sw = np.ones(len(ids))

    w, b = np.zeros(d), 0.0
    for _ in range(epochs):
        p = _sigmoid(Xs @ w + b)
        g = (sw * (p - y)) @ Xs / len(ids) + l2 * w
        gb = float(np.mean(sw * (p - y)))
        w -= lr * g
        b -= lr * gb
    return w, b, _sigmoid(X @ w + b)


def _dense_weights(clf):
    """``clf.w`` in the dense column order [BoW ; embedding] (sentinel dropped)."""
    return np.delete(clf.w, clf.hash_dim)


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
    # About half the 200 sentences are positive: the sample holds every negative.
    clf.fit(set(np.nonzero(y)[0].tolist()))
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


def test_fit_rejects_ids_outside_the_corpus():
    X, _ = _separable(n=20)
    for bad in ([-1], [3, 20], [25]):
        with pytest.raises(ValueError, match=re.escape(f"): [{bad[-1]}]")):
            EmbeddingClassifier(X).fit(bad)


def test_fit_counts_repeated_ids_once():
    X, y = _separable()
    pos = np.flatnonzero(y)[::-1]
    once = EmbeddingClassifier(X, seed=4).fit(pos.tolist())
    twice = EmbeddingClassifier(X, seed=4).fit(np.concatenate([pos, pos[:7]]).tolist())
    assert np.array_equal(once.w, twice.w) and once.b == twice.b


@pytest.mark.parametrize("kwargs", [{}, {"balance": False, "neg_ratio": 6.0}])
@pytest.mark.parametrize("n_pos", [1, 40, 200])
def test_plain_matrix_is_the_dense_loop_exactly(kwargs, n_pos):
    """A 2-D array is the layout with no BoW block: same arithmetic, same bits."""
    X, y = _separable()
    pos = np.flatnonzero(y)[:n_pos] if n_pos < 200 else np.arange(200)
    w, b, s = _reference_fit(X, pos.tolist(), seed=7, **kwargs)
    clf = EmbeddingClassifier(X, seed=7, **kwargs).fit(pos.tolist())
    assert np.array_equal(_dense_weights(clf), w) and clf.b == b
    assert np.array_equal(clf.scores(), s)


def test_layout_matches_dense_reference(prep_directions):
    prep = prep_directions
    X = densify(prep.features)
    true_pos = np.flatnonzero(prep.labels)
    for pos in (prep.index.ids(prep.seed_rule_key()), true_pos[:300], true_pos):
        assert len(pos)
        w, b, s = _reference_fit(X, pos.tolist(), seed=11)
        clf = prep.make_classifier(seed=11).fit(pos.tolist())
        assert np.abs(_dense_weights(clf) - w).max() <= LAYOUT_TOL
        assert abs(clf.b - b) <= LAYOUT_TOL
        assert np.abs(clf.scores() - s).max() <= LAYOUT_TOL
        assert clf.w[clf.hash_dim] == 0.0  # the padding sentinel never trains
