"""Tests for the embedding logistic-regression classifier."""
import re

import numpy as np
import pytest

from repro.core.classifier import EmbeddingClassifier, _logits, _sigmoid
from repro.text.embeddings import Features
from tests.conftest import dense_features
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


def _ungrouped_fit(features, pos_ids, *, l2=1e-2, lr=0.5, epochs=200, seed=0,
                   balance=True, neg_ratio=2.0):
    """The sparse-layout fit over every training sentence, before bit-identical
    feature rows were merged, kept as the reference on per-sentence copies of
    the rows: returns (w, b, scores of every sentence, the training ids)."""
    all_ids = features.bow_ids[features.row].astype(np.intp)
    all_vals = np.asarray(features.bow_vals[features.row], dtype=np.float64)
    all_dense = np.asarray(features.dense[features.row], dtype=np.float64)
    n = len(all_dense)
    rng = np.random.default_rng(seed)
    pos = np.fromiter(pos_ids, dtype=np.int64)
    is_pos = np.zeros(n, dtype=bool)
    is_pos[pos] = True
    k = min(n - len(pos), max(int(neg_ratio * len(pos)), 50))
    neg = rng.choice(np.flatnonzero(~is_pos), size=k, replace=False)
    ids = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    if balance and len(neg):
        w_pos, w_neg = len(ids) / (2 * len(pos)), len(ids) / (2 * len(neg))
        sw = np.where(y == 1, w_pos, w_neg)
    else:
        sw = np.ones(len(ids))

    h = features.hash_dim + 1
    bow_ids, bow_vals, dense = all_ids[ids], all_vals[ids], all_dense[ids]
    flat_ids = bow_ids.ravel()
    w, b = np.zeros(h + all_dense.shape[1]), 0.0
    g = np.empty_like(w)
    for _ in range(epochs):
        p = _sigmoid(_logits(w, b, h, bow_ids, bow_vals, dense))
        r = sw * (p - y)
        g[:h] = np.bincount(flat_ids, weights=(r[:, None] * bow_vals).ravel(), minlength=h)
        np.matmul(r, dense, out=g[h:])
        g /= len(ids)
        g += l2 * w
        w -= lr * g
        b -= lr * float(r.sum() / len(ids))
    return w, b, _sigmoid(_logits(w, b, h, all_ids, all_vals, all_dense)), ids


def _dense_weights(clf):
    """``clf.w`` in the dense column order [BoW ; embedding] (sentinel dropped)."""
    return np.delete(clf.w, clf.hash_dim)


def _separable(n=200, d=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, 0] > 0).astype(int)
    X[:, 0] += np.where(y == 1, 1.5, -1.5)
    return X, y


def _clf(X, **kwargs):
    return EmbeddingClassifier(dense_features(X), **kwargs)


def test_unfitted_scores_are_half():
    X, _ = _separable()
    clf = _clf(X)
    assert np.allclose(clf.scores(), 0.5)


def test_fit_separable_data():
    X, y = _separable()
    clf = _clf(X, seed=1)
    # About half the 200 sentences are positive: the sample holds every negative.
    clf.fit(set(np.nonzero(y)[0].tolist()))
    acc = ((clf.scores() >= 0.5) == y).mean()
    assert acc > 0.95


def test_fit_with_sampled_negatives():
    X, y = _separable(n=400)
    clf = _clf(X, seed=2)
    clf.fit(set(np.nonzero(y)[0].tolist()))
    assert ((clf.scores() >= 0.5) == y).mean() > 0.85


def test_fit_requires_positives():
    X, _ = _separable()
    with pytest.raises(ValueError):
        _clf(X).fit(set())


def test_determinism_same_seed():
    X, y = _separable()
    pos = set(np.nonzero(y)[0].tolist())
    a = _clf(X, seed=3).fit(pos).scores()
    b = _clf(X, seed=3).fit(pos).scores()
    assert np.allclose(a, b)


def test_balance_flag_changes_decision_rate():
    """Unbalanced mode with a large negative ratio predicts fewer
    positives under imbalance (the final-classifier regime)."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1000, 6))
    y = (X[:, 0] + 0.5 * rng.standard_normal(1000) > 1.8).astype(int)  # ~4% positives
    pos = set(np.nonzero(y)[0].tolist())
    bal = _clf(X, seed=5, balance=True).fit(pos)
    unbal = _clf(X, seed=5, balance=False, neg_ratio=6.0).fit(pos)
    assert (unbal.scores() >= 0.5).sum() <= (bal.scores() >= 0.5).sum()


def test_scores_are_probabilities():
    X, y = _separable()
    clf = _clf(X, seed=0).fit(set(np.nonzero(y)[0].tolist()))
    s = clf.scores()
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_fit_when_positives_cover_everything():
    # No negatives can be sampled: the fit skips class weighting.
    X, _ = _separable(n=10)
    clf = _clf(X).fit(set(range(10)))
    assert np.all(clf.scores() > 0.5)


def test_fit_rejects_ids_outside_the_corpus():
    X, _ = _separable(n=20)
    for bad in ([-1], [3, 20], [25]):
        with pytest.raises(ValueError, match=re.escape(f"): [{bad[-1]}]")):
            _clf(X).fit(bad)


def test_fit_counts_repeated_ids_once():
    X, y = _separable()
    pos = np.flatnonzero(y)[::-1]
    once = _clf(X, seed=4).fit(pos.tolist())
    twice = _clf(X, seed=4).fit(np.concatenate([pos, pos[:7]]).tolist())
    assert np.array_equal(once.w, twice.w) and once.b == twice.b


@pytest.mark.parametrize("kwargs", [{}, {"balance": False, "neg_ratio": 6.0}])
@pytest.mark.parametrize("n_pos", [1, 40, 200])
def test_plain_matrix_is_the_dense_loop_exactly(kwargs, n_pos):
    """Features with no BoW block (K = 0) run the dense loop: same arithmetic, same bits."""
    X, y = _separable()
    pos = np.flatnonzero(y)[:n_pos] if n_pos < 200 else np.arange(200)
    w, b, s = _reference_fit(X, pos.tolist(), seed=7, **kwargs)
    clf = _clf(X, seed=7, **kwargs).fit(pos.tolist())
    assert np.array_equal(_dense_weights(clf), w) and clf.b == b
    assert np.array_equal(clf.scores(), s)


def test_layout_matches_dense_reference(prep_directions):
    prep = prep_directions
    X = densify(prep.features)[prep.features.row]
    true_pos = np.flatnonzero(prep.labels)
    for pos in (prep.index.ids(prep.seed_rule_key()), true_pos[:300], true_pos):
        assert len(pos)
        w, b, s = _reference_fit(X, pos.tolist(), seed=11)
        clf = prep.make_classifier(seed=11).fit(pos.tolist())
        assert np.abs(_dense_weights(clf) - w).max() <= LAYOUT_TOL
        assert abs(clf.b - b) <= LAYOUT_TOL
        assert np.abs(clf.scores() - s).max() <= LAYOUT_TOL
        assert clf.w[clf.hash_dim] == 0.0  # the padding sentinel never trains


def _hand_built(row):
    """Features whose sentence i has the feature row ``row[i]`` of four
    distinct hand-picked rows (hash_dim 8, K = 2, dim 3)."""
    ids = np.array([[0, 3], [1, 8], [0, 3], [8, 8]], dtype=np.int32)
    vals = np.array([[0.6, 0.8], [1.0, 0.0], [0.6, 0.8], [0.0, 0.0]], dtype=np.float32)
    dense = np.array([[0.5, -1.0, 0.25], [0.0, 2.0, 1.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]],
                     dtype=np.float32)
    return Features(ids, vals, dense, 8, np.asarray(row))


def _expected_groups(features, ids, n_pos):
    """(row, label) -> training ids, in order of first appearance."""
    row = features.row
    groups = {}
    for j, i in enumerate(ids):
        groups.setdefault((int(row[i]), int(j < n_pos)), []).append(int(i))
    return groups


@pytest.mark.parametrize("seed", range(5))
def test_a_row_in_both_classes_stays_two_groups(seed):
    """Sentences 0, 1 (positive) and 4, 5, 10 (negative) share one feature
    row: the training set holds it once per label, weighted by its count."""
    f = _hand_built([0, 0, 1, 2, 0, 0, 3, 1, 2, 3, 0, 1])
    pos = [0, 1, 2]
    # All nine other sentences are drawn as negatives.
    w, b, s, ids = _ungrouped_fit(f, pos, seed=seed)
    assert sorted(ids[3:].tolist()) == [3, 4, 5, 6, 7, 8, 9, 10, 11]
    groups = _expected_groups(f, ids, len(pos))
    assert len(groups) == 6 and (0, 1) in groups and (0, 0) in groups

    rows, y, sw, m = EmbeddingClassifier(f, seed=seed)._training_set(pos)
    assert m == 12
    assert list(zip(rows.tolist(), y.astype(int).tolist())) == list(groups)
    w_pos, w_neg = 12 / 6, 12 / 18
    assert sw.tolist() == [len(v) * (w_pos if lab else w_neg) for (_, lab), v in groups.items()]

    clf = EmbeddingClassifier(f, seed=seed).fit(pos)
    assert np.abs(_dense_weights(clf) - np.delete(w, 8)).max() <= LAYOUT_TOL
    assert abs(clf.b - b) <= LAYOUT_TOL
    assert np.abs(clf.scores() - s).max() <= LAYOUT_TOL


def test_degenerate_features():
    empty = Features(np.empty((0, 2), np.int32), np.empty((0, 2), np.float32),
                     np.empty((0, 3), np.float32), 8, np.empty(0, np.intp))
    clf = EmbeddingClassifier(empty)
    assert clf.scores().shape == (0,)
    with pytest.raises(ValueError, match="zero positive"):
        clf.fit([])
    with pytest.raises(ValueError, match=re.escape("[0, 0): [0]")):
        clf.fit([0])

    # No columns at all: every sentence scores the bias alone.
    blank = _clf(np.zeros((6, 0)))
    s = blank.fit([1]).scores()
    assert len(s) == 6 and len(set(s.tolist())) == 1

    # No BoW block (K = 0) and repeated rows: the dense loop's result.
    X, y = _separable(n=40)
    X = np.concatenate([X, X[::2]])
    pos = np.flatnonzero(np.concatenate([y, y[::2]]))
    w, b, s = _reference_fit(X, pos.tolist(), seed=3)
    clf = _clf(X, seed=3).fit(pos.tolist())
    assert np.abs(_dense_weights(clf) - w).max() <= LAYOUT_TOL and abs(clf.b - b) <= LAYOUT_TOL
    assert np.abs(clf.scores() - s).max() <= LAYOUT_TOL


def test_distinct_rows_are_the_bitwise_distinct_rows(prep_directions):
    """On directions, grouping sentences by token sequence loses nothing
    against grouping their features by bytes: the rows are bitwise distinct."""
    f = prep_directions.features
    sentence_bytes = [f.bow_ids[g].tobytes() + f.bow_vals[g].tobytes() + f.dense[g].tobytes()
                      for g in f.row]
    seen = {}
    assert [seen.setdefault(b, len(seen)) for b in sentence_bytes] == f.row.tolist()
    assert len(seen) == len(f.dense)


def test_grouped_fit_matches_ungrouped_reference(prep_directions):
    prep = prep_directions
    f = prep.features
    true_pos = np.flatnonzero(prep.labels)
    for pos in (prep.index.ids(prep.seed_rule_key()), true_pos[:300], true_pos):
        w, b, s, ids = _ungrouped_fit(f, pos.tolist(), seed=11)
        groups = _expected_groups(f, ids, len(pos))
        assert len(groups) < len(ids)  # the training set does collapse
        rows, y, _, m = prep.make_classifier(seed=11)._training_set(pos.tolist())
        assert m == len(ids)
        assert list(zip(rows.tolist(), y.astype(int).tolist())) == list(groups)
        clf = prep.make_classifier(seed=11).fit(pos.tolist())
        assert np.abs(clf.w - w).max() <= LAYOUT_TOL
        assert abs(clf.b - b) <= LAYOUT_TOL
        s_clf = clf.scores()
        assert np.abs(s_clf - s).max() <= LAYOUT_TOL
        per_row = np.empty(len(f.dense))
        per_row[f.row] = s_clf
        assert np.array_equal(s_clf, per_row[f.row])  # one score per feature row
