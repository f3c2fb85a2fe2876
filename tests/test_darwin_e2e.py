"""End-to-end Darwin tests on prepared corpora: Algorithm 1 wiring and
the paper's qualitative orderings."""
import numpy as np
import pytest

from repro.core.darwin import run_darwin
from repro.core.oracle_sim import GroundTruthOracle, NoisyOracle
from repro.eval.metrics import coverage_of_ids, precision_of_ids
from tests.conftest import dense_features


def _run(prep, strategy, budget=60, **kw):
    return run_darwin(
        prep.index,
        prep.make_classifier(),
        GroundTruthOracle(prep.labels),
        seed_rule=prep.seed_rule_key(),
        budget=budget,
        strategy=strategy,
        true_labels=prep.labels,
        **kw,
    )


def test_seed_rule_must_exist(prep_directions):
    with pytest.raises(KeyError):
        run_darwin(
            prep_directions.index,
            prep_directions.make_classifier(),
            GroundTruthOracle(prep_directions.labels),
            seed_rule="tr:no such rule",
            budget=5,
        )


def test_requires_some_seed(prep_directions):
    with pytest.raises(ValueError):
        run_darwin(
            prep_directions.index,
            prep_directions.make_classifier(),
            GroundTruthOracle(prep_directions.labels),
            budget=5,
        )


def test_budget_respected(prep_directions):
    res = _run(prep_directions, "hybrid", budget=10)
    assert len(res.history) <= 10


def test_rules_start_with_seed(prep_directions):
    res = _run(prep_directions, "hybrid", budget=10)
    assert res.rules[0] == prep_directions.seed_rule_key()


def test_accepted_rules_are_precise(prep_directions):
    """Every accepted rule passed the 0.8-precision oracle."""
    prep = prep_directions
    res = _run(prep, "hybrid", budget=40)
    for r in res.rules:
        assert precision_of_ids(set(prep.index.coverage(r)), prep.labels) >= 0.8


def test_positives_is_union_of_rule_coverage(prep_directions):
    prep = prep_directions
    res = _run(prep, "hybrid", budget=30)
    union = set()
    for r in res.rules:
        union |= prep.index.coverage(r)
    assert res.positives == union


def test_history_monotone_recall(prep_directions):
    res = _run(prep_directions, "hybrid", budget=40)
    recalls = [h["recall"] for h in res.history]
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))


def test_no_rule_asked_twice(prep_directions):
    res = _run(prep_directions, "universal", budget=50)
    keys = [h["key"] for h in res.history]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("strategy", ["hybrid", "local", "universal", "highp", "highc"])
def test_all_strategies_run(prep_directions, strategy):
    res = _run(prep_directions, strategy, budget=15)
    assert coverage_of_ids(res.positives, prep_directions.labels) > 0


def test_hybrid_beats_localsearch(prep_directions):
    """§4.3 ordering: HS final coverage ≥ LS (LS plateaus locally)."""
    hs = _run(prep_directions, "hybrid", budget=60)
    ls = _run(prep_directions, "local", budget=60)
    cov = prep_directions.labels
    assert coverage_of_ids(hs.positives, cov) >= coverage_of_ids(ls.positives, cov)


def test_hybrid_beats_highc(prep_directions):
    """HighC burns budget on huge imprecise rules (§4.3 footnote)."""
    hs = _run(prep_directions, "hybrid", budget=60)
    hc = _run(prep_directions, "highc", budget=60)
    cov = prep_directions.labels
    assert coverage_of_ids(hs.positives, cov) > coverage_of_ids(hc.positives, cov)


def test_hybrid_majority_coverage(prep_directions):
    """Darwin uncovers the majority of positives with ~100 queries."""
    res = _run(prep_directions, "hybrid", budget=100)
    assert coverage_of_ids(res.positives, prep_directions.labels) >= 0.6


def test_seed_from_positive_ids(prep_directions):
    prep = prep_directions
    pos = np.nonzero(prep.labels)[0][:5].tolist()
    res = run_darwin(
        prep.index,
        prep.make_classifier(),
        GroundTruthOracle(prep.labels),
        seed_positive_ids=set(pos),
        budget=60,
        strategy="hybrid",
        true_labels=prep.labels,
    )
    assert coverage_of_ids(res.positives, prep.labels) > 0.3


def test_noisy_oracle_still_works(prep_musicians):
    """§4.5: annotator-style (sampled) oracle degrades gracefully."""
    prep = prep_musicians
    res = run_darwin(
        prep.index,
        prep.make_classifier(),
        NoisyOracle(prep.labels, sample_size=5, seed=3),
        seed_rule=prep.seed_rule_key(),
        budget=60,
        strategy="hybrid",
        true_labels=prep.labels,
    )
    assert coverage_of_ids(res.positives, prep.labels) > 0.3
    # Noise shows up as imperfect precision, but not catastrophic.
    assert precision_of_ids(res.positives, prep.labels) > 0.5


def test_musicians_unigram_seed(prep_musicians):
    res = _run(prep_musicians, "hybrid", budget=60)
    assert coverage_of_ids(res.positives, prep_musicians.labels) > 0.5


def test_tweets_runs(prep_tweets):
    res = _run(prep_tweets, "hybrid", budget=60)
    assert coverage_of_ids(res.positives, prep_tweets.labels) > 0.5


def test_seed_rule_covering_corpus_runs():
    # P starts as the whole corpus: no negatives to sample, and nothing
    # left that adds positives, so the loop stops without a query.
    from repro.core.classifier import EmbeddingClassifier
    from repro.index.inverted import HeuristicIndex

    idx = HeuristicIndex(
        {"tr:a": frozenset(range(10)), "tr:a b": frozenset({1, 2})}, n_sentences=10
    )
    X = np.random.default_rng(0).standard_normal((10, 4))
    res = run_darwin(
        idx,
        EmbeddingClassifier(dense_features(X)),
        GroundTruthOracle(np.ones(10, dtype=np.int64)),
        seed_rule="tr:a",
        budget=5,
    )
    assert res.rules == ["tr:a"]
    assert res.positives == set(range(10))
    assert res.history == []


# -- degenerate inputs -------------------------------------------------
def _assert_session_invariants(res, index, budget, oracle_labels, seed_rule=None, seed_ids=()):
    hist = res.history
    assert len(hist) <= budget
    asked = [h["key"] for h in hist]
    assert len(asked) == len(set(asked))
    assert seed_rule not in asked
    yes = [h["key"] for h in hist if h["answer"]]
    assert res.rules == ([seed_rule] if seed_rule else []) + yes
    for r in yes:
        assert precision_of_ids(index.coverage(r), oracle_labels) >= 0.8
    union = set(seed_ids)
    for r in res.rules:
        union |= index.coverage(r)
    assert res.positives == union
    assert all(h["n_positives"] <= len(res.positives) for h in hist)


def _toy_classifier():
    from repro.core.classifier import EmbeddingClassifier

    return EmbeddingClassifier(dense_features(np.random.default_rng(0).standard_normal((10, 4))))


def test_empty_index_runs():
    from repro.index.inverted import HeuristicIndex

    idx = HeuristicIndex({}, n_sentences=10)
    labels = np.zeros(10, dtype=np.int64)
    res = run_darwin(idx, _toy_classifier(), GroundTruthOracle(labels),
                     seed_positive_ids={1, 2}, budget=5)
    assert res.rules == [] and res.history == [] and res.positives == {1, 2}
    _assert_session_invariants(res, idx, 5, labels, seed_ids={1, 2})


@pytest.mark.parametrize("bad", [-1, 10])
def test_seed_ids_outside_corpus_rejected(toy_index, toy_labels, bad):
    with pytest.raises(ValueError, match=rf"seed_positive_ids \[{bad}\]"):
        run_darwin(toy_index, _toy_classifier(), GroundTruthOracle(toy_labels),
                   seed_positive_ids={2, bad}, budget=5)


def test_seed_rule_covering_nothing_rejected(toy_labels):
    from repro.index.inverted import HeuristicIndex

    idx = HeuristicIndex({"tr:a": [], "tr:b": [1, 2]}, n_sentences=10)
    with pytest.raises(ValueError, match="'tr:a' covers no sentence"):
        run_darwin(idx, _toy_classifier(), GroundTruthOracle(toy_labels),
                   seed_rule="tr:a", budget=5)


def test_budget_zero_runs(toy_index, toy_labels):
    res = run_darwin(toy_index, _toy_classifier(), GroundTruthOracle(toy_labels),
                     seed_rule="tr:a b", budget=0, true_labels=toy_labels)
    assert res.rules == ["tr:a b"] and res.history == []
    _assert_session_invariants(res, toy_index, 0, toy_labels, seed_rule="tr:a b")


@pytest.mark.parametrize("strategy", ["hybrid", "local", "universal", "highp", "highc"])
def test_seed_rule_covering_one_sentence(toy_index, toy_labels, strategy):
    res = run_darwin(toy_index, _toy_classifier(), GroundTruthOracle(toy_labels),
                     seed_rule="tr:c d", budget=10, strategy=strategy,
                     true_labels=toy_labels)
    assert toy_index.count("tr:c d") == 1
    _assert_session_invariants(res, toy_index, 10, toy_labels, seed_rule="tr:c d")
    curve = [r for _, r in res.recall_curve()]
    assert all(a <= b for a, b in zip(curve, curve[1:]))


@pytest.mark.parametrize("strategy", ["hybrid", "local", "universal", "highp", "highc"])
def test_all_no_oracle(toy_index, toy_labels, strategy):
    def never(key, ids):
        return False

    res = run_darwin(toy_index, _toy_classifier(), never, seed_rule="tr:a b",
                     budget=20, strategy=strategy)
    assert res.rules == ["tr:a b"]
    assert all(not h["answer"] for h in res.history)
    _assert_session_invariants(res, toy_index, 20, toy_labels, seed_rule="tr:a b")


def test_all_no_oracle_directions(prep_directions):
    prep = prep_directions
    res = run_darwin(prep.index, prep.make_classifier(), lambda key, ids: False,
                     seed_rule=prep.seed_rule_key(), budget=30, true_labels=prep.labels)
    assert len(res.history) == 30 and res.rules == [prep.seed_rule_key()]
    _assert_session_invariants(res, prep.index, 30, prep.labels,
                               seed_rule=prep.seed_rule_key())


class _AttributeOnlyIndex:
    """Forwards attribute access and ``in`` only: the loop may call no
    other dunder (``len``, ``[]``) on the index it is given."""

    def __init__(self, index):
        self._index = index

    def __contains__(self, key):
        return key in self._index

    def __getattr__(self, name):
        return getattr(self._index, name)


@pytest.mark.parametrize("strategy", ["hybrid", "highp", "highc"])
def test_loop_uses_attributes_and_in_only(prep_directions, strategy):
    direct = _run(prep_directions, strategy, budget=25)
    proxied = run_darwin(
        _AttributeOnlyIndex(prep_directions.index),
        prep_directions.make_classifier(),
        GroundTruthOracle(prep_directions.labels),
        seed_rule=prep_directions.seed_rule_key(),
        budget=25,
        strategy=strategy,
        true_labels=prep_directions.labels,
    )
    assert proxied.rules == direct.rules
    assert proxied.history == direct.history
