"""Property tests of the Darwin loop over random toy indexes.

Each index holds the TokensRegex keys (n-grams and gapped pairs) of a
few dozen random sentences over a small vocabulary, so every child's
coverage is a subset of its parents'. Sentences holding the planted
word are the positives, with some labels flipped. Every strategy runs
from a seed rule and from seed sentence ids on every index.
"""
import numpy as np
import pytest

from repro.core.classifier import EmbeddingClassifier
from repro.core.darwin import run_darwin
from repro.core.oracle_sim import GroundTruthOracle
from repro.core.traversal import STRATEGIES
from repro.grammar import tokensregex
from repro.index.inverted import HeuristicIndex
from tests.conftest import dense_features
from tests.test_darwin_e2e import _assert_session_invariants

N_INDEXES = 50
BUDGET = 12
VOCAB = ["a", "b", "c", "d", "e", "f", "g"]


def _toy_sentences(rng: np.random.Generator) -> list[list[str]]:
    n = int(rng.integers(12, 40))
    return [[str(w) for w in rng.choice(VOCAB, size=rng.integers(2, 7))] for _ in range(n)]


def _toy_corpus(rng: np.random.Generator):
    sentences = _toy_sentences(rng)
    n = len(sentences)
    labels = np.array([int("a" in s) for s in sentences], dtype=np.int64)
    labels[rng.random(n) < 0.1] ^= 1
    labels[int(rng.integers(n))] = 1  # at least one positive
    coverage: dict[str, list[int]] = {}
    for sid, tokens in enumerate(sentences):
        for key in sorted(tokensregex.sketch(tokens, max_len=3, max_gap=2)):
            coverage.setdefault(key, []).append(sid)
    min_count = int(rng.integers(1, 3))
    coverage = {k: ids for k, ids in sorted(coverage.items()) if len(ids) >= min_count}
    features = dense_features(rng.standard_normal((n, 4)) + labels[:, None])
    return HeuristicIndex(coverage, n), labels, features


@pytest.fixture(scope="module")
def corpora():
    rng = np.random.default_rng(20240)
    return [_toy_corpus(rng) for _ in range(N_INDEXES)]


def test_child_coverage_within_parent(corpora):
    for index, _, _ in corpora:
        for key in index.keys():
            for p in index.parents(key):
                assert index.coverage(key) <= index.coverage(p)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("seed_kind", ["rule", "ids"])
def test_session_invariants(corpora, strategy, seed_kind):
    for i, (index, labels, features) in enumerate(corpora):
        if seed_kind == "rule":
            # The most frequent key (ties → smallest key) seeds the run.
            seed_rule = min(index.keys(), key=lambda k: (-index.count(k), k))
            kw, seed_ids = {"seed_rule": seed_rule}, set()
        else:
            seed_rule = None
            seed_ids = set(np.flatnonzero(labels)[:2].tolist())
            kw = {"seed_positive_ids": seed_ids}
        res = run_darwin(index, EmbeddingClassifier(features, seed=i, epochs=50),
                         GroundTruthOracle(labels), budget=BUDGET, strategy=strategy,
                         true_labels=labels, **kw)
        _assert_session_invariants(res, index, BUDGET, labels,
                                   seed_rule=seed_rule, seed_ids=seed_ids)
        curve = [r for _, r in res.recall_curve()]
        assert len(curve) == len(res.history)
        assert all(a <= b for a, b in zip(curve, curve[1:])), (i, curve)


@pytest.fixture()
def kept_overlaps_checked(monkeypatch):
    """Check, at every candidate generation of ``run_darwin``, that the
    overlap counts the loop keeps equal a recount from P's mask; return
    the list of |P| at each check."""
    from repro.core import darwin

    checked: list[int] = []
    generate = darwin.generate_candidates

    def check(index, mask, k, **kwargs):
        np.testing.assert_array_equal(kwargs["overlaps"], index.overlaps(mask))
        checked.append(int(mask.sum()))
        return generate(index, mask, k, **kwargs)

    monkeypatch.setattr(darwin, "generate_candidates", check)
    return checked


def _assert_checked_after_every_yes(checked, res):
    # One check before the first query, one after every YES that is
    # followed by another query.
    assert len(checked) >= 1 + sum(h["answer"] for h in res.history[:-1])


@pytest.mark.parametrize("seed_kind", ["rule", "ids"])
def test_kept_overlaps_match_recount(corpora, kept_overlaps_checked, seed_kind):
    grew = 0
    for i, (index, labels, features) in enumerate(corpora):
        if seed_kind == "rule":
            kw = {"seed_rule": min(index.keys(), key=lambda k: (-index.count(k), k))}
        else:
            kw = {"seed_positive_ids": set(np.flatnonzero(labels)[:2].tolist())}
        kept_overlaps_checked.clear()
        res = run_darwin(index, EmbeddingClassifier(features, seed=i, epochs=50),
                         GroundTruthOracle(labels), budget=BUDGET, strategy="hybrid", **kw)
        _assert_checked_after_every_yes(kept_overlaps_checked, res)
        grew += len(set(kept_overlaps_checked)) > 1
    assert grew > N_INDEXES // 2  # most sessions checked more than one P


def test_kept_overlaps_match_recount_on_directions(prep_directions, kept_overlaps_checked):
    p = prep_directions
    res = run_darwin(p.index, p.make_classifier(), GroundTruthOracle(p.labels),
                     seed_rule=p.seed_rule_key(), budget=40, strategy="hybrid")
    _assert_checked_after_every_yes(kept_overlaps_checked, res)
    assert len(set(kept_overlaps_checked)) >= 5
