"""Tests for the snorkel-lite label model."""
import numpy as np
import pytest

from repro.snorkel_lite.label_model import LabelModel, majority_vote


def _synthetic(seed=0, n=4000, m=6, rule_pos=90, rule_neg=10):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.15).astype(int)
    pos = np.nonzero(y)[0]
    neg = np.nonzero(y == 0)[0]
    L = np.zeros((n, m), dtype=bool)
    for j in range(m):
        L[rng.choice(pos, size=min(rule_pos, len(pos)), replace=False), j] = True
        L[rng.choice(neg, size=rule_neg, replace=False), j] = True
    return L, y


def _f1(pred, y):
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    p = tp / max(tp + fp, 1)
    r = tp / max(tp + fn, 1)
    return 2 * p * r / max(p + r, 1e-9)


def test_majority_vote_is_union():
    L = np.array([[1, 0], [0, 1], [0, 0]], dtype=bool)
    assert majority_vote(L).tolist() == [1, 1, 0]


def test_label_model_matches_votes_on_clean_rules():
    L, y = _synthetic()
    lm = LabelModel().fit(L)
    pred = lm.predict_proba() >= 0.5
    assert _f1(pred, y) >= _f1(majority_vote(L), y) - 0.02


def test_label_model_estimates_sane_parameters():
    L, y = _synthetic()
    lm = LabelModel().fit(L)
    assert 0 < lm.pi < 1
    assert np.all(lm.p1 > lm.p0)  # rules fire more on positives


def test_posterior_in_unit_interval():
    L, _ = _synthetic()
    post = LabelModel().fit(L).predict_proba()
    assert post.min() >= 0 and post.max() <= 1


def test_label_model_downweights_noisy_rule():
    """A rule firing indiscriminately should get p1 ≈ p0 (no signal)."""
    L, y = _synthetic()
    rng = np.random.default_rng(1)
    noisy = rng.random(len(y)) < 0.3
    L2 = np.column_stack([L, noisy])
    lm = LabelModel().fit(L2)
    ratio_clean = lm.p1[0] / lm.p0[0]
    ratio_noisy = lm.p1[-1] / lm.p0[-1]
    assert ratio_noisy < ratio_clean


def test_correlated_subset_rule_collapse_and_dedupe_fix(toy_index):
    """Documented failure mode: a subset rule breaks independence and
    collapses recall; dedupe_rules removes it (see labeling.dedupe_rules)."""
    from repro.core.labeling import dedupe_rules

    L, y = _synthetic(seed=2)
    sub = L[:, 0] & (np.random.default_rng(3).random(len(y)) < 0.9)
    L_corr = np.column_stack([L, sub])
    f1_corr = _f1(LabelModel().fit(L_corr).predict_proba() >= 0.5, y)
    f1_clean = _f1(LabelModel().fit(L).predict_proba() >= 0.5, y)
    assert f1_clean >= f1_corr  # dedup can only help
