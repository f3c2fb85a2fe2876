"""Algorithm 2 and the hierarchy cleanup over the CSR index and a P mask
give exactly what the set-based implementation gave.

``reference_generate_candidates`` and ``reference_cleanup`` are the
set-based code kept verbatim as the reference; they run over
``SetIndex``, which holds every inverted list as a ``frozenset``.
"""
import heapq

import numpy as np
import pytest

from repro.core.candidates import generate_candidates
from repro.core.darwin import run_darwin
from repro.core.hierarchy import Hierarchy
from repro.core.oracle_sim import GroundTruthOracle
from repro.corpora.datasets import musicians
from repro.eval.pipeline import prepare
from repro.grammar.base import ROOT
from repro.index.sketch import SketchConfig


class SetIndex:
    """The set-based index: ``key → frozenset(sid)``."""

    def __init__(self, index):
        self._index = index
        self._cov = {k: index.coverage(k) for k in index.keys()}

    def coverage(self, key):
        if key == ROOT:
            return frozenset(range(self._index.n_sentences))
        return self._cov.get(key, frozenset())

    def count(self, key):
        return self._index.n_sentences if key == ROOT else len(self._cov.get(key, ()))

    def children(self, key):
        return self._index.children(key)


def reference_generate_candidates(index, positives, k, *, max_duplicate_signature=3):
    results: list[str] = []
    recent = ROOT
    seen: set[str] = {ROOT}
    heap: list[tuple[int, int, str]] = []
    sig_count: dict[frozenset[int], int] = {}

    while len(results) < k:
        for c in index.children(recent):
            if c not in seen:
                seen.add(c)
                overlap = len(index.coverage(c) & positives)
                heapq.heappush(heap, (-overlap, -index.count(c), c))
        if not heap:
            break
        _, _, best = heapq.heappop(heap)
        recent = best
        sig = frozenset(index.coverage(best) & positives)
        if sig_count.get(sig, 0) >= max_duplicate_signature:
            continue  # diversity cap: skip near-duplicate candidates
        sig_count[sig] = sig_count.get(sig, 0) + 1
        results.append(best)
    return results


def reference_cleanup(index, candidates, positives):
    return [c for c in candidates if not (index.coverage(c) <= positives)]


@pytest.fixture(scope="module")
def prep_musicians_tm(spark):
    """musicians with TreeMatch keys ('/', '//' and '∧') in the index."""
    return prepare(spark, musicians(n=1500), cfg=SketchConfig(max_len=4, use_treematch=True))


def _positive_sets(prep) -> dict[str, set[int]]:
    """P = ∅, the seed's coverage, the seed ∪ its first two accepted
    rules, and every true positive."""
    idx = prep.index
    res = run_darwin(idx, prep.make_classifier(), GroundTruthOracle(prep.labels),
                     seed_rule=prep.seed_rule_key(), budget=25, strategy="hybrid")
    assert len(res.rules) >= 3, res.rules
    return {
        "empty": set(),
        "seed": set(idx.coverage(res.rules[0])),
        "seed+2": set().union(*(idx.coverage(r) for r in res.rules[:3])),
        "truth": set(np.flatnonzero(prep.labels).tolist()),
    }


def _generate(index, positives, k, **kwargs):
    """``generate_candidates`` for P = ``positives``, overlaps counted afresh."""
    mask = index.mask(positives)
    return generate_candidates(index, mask, k, overlaps=index.overlaps(mask), **kwargs)


def _assert_same(index, positives: set[int]) -> None:
    ref_index = SetIndex(index)
    mask = index.mask(positives)
    overlaps = index.overlaps(mask)
    scores = np.full(index.n_sentences, 0.5)
    for k in (3, 500):
        want = reference_generate_candidates(ref_index, positives, k)
        assert generate_candidates(index, mask, k, overlaps=overlaps) == want
        h = Hierarchy.build(index, want, mask, scores=scores, overlaps=overlaps)
        assert h.nodes == reference_cleanup(ref_index, want, positives)


@pytest.mark.parametrize("positives", [set(), {2, 3}, {2, 3, 4, 7}, set(range(10)), {9}])
def test_toy_index_matches_reference(toy_index, positives):
    _assert_same(toy_index, positives)


def test_directions_matches_reference(prep_directions):
    for name, positives in _positive_sets(prep_directions).items():
        _assert_same(prep_directions.index, positives)


def test_musicians_treematch_matches_reference(prep_musicians_tm):
    for name, positives in _positive_sets(prep_musicians_tm).items():
        _assert_same(prep_musicians_tm.index, positives)


def test_diversity_cap_matches_reference():
    from repro.index.inverted import HeuristicIndex

    cov = {f"tr:k{i}": frozenset({0, 1}) for i in range(5)}
    cov.update({f"tr:z{i}": frozenset({2, 3}) for i in range(5)})
    idx = HeuristicIndex(cov, n_sentences=4)
    for cap in (0, 1, 2, 6):
        for positives in (set(), {0}, {0, 1, 2}):
            assert _generate(idx, positives, 10, max_duplicate_signature=cap) == \
                reference_generate_candidates(
                SetIndex(idx), positives, 10, max_duplicate_signature=cap
            )


def test_child_coverage_within_parent_treematch(prep_musicians_tm):
    """The early exit of Algorithm 2 relies on C_child ⊆ C_parent for
    every edge of the index."""
    idx = prep_musicians_tm.index
    tm_keys = [k for k in idx.keys() if k.startswith("tm:")]
    body = [k.split(":", 1)[1] for k in tm_keys]
    assert any("//" in b for b in body)
    assert any("/" in b.replace("//", "") for b in body)
    assert any("&" in b for b in body)
    checked = 0
    for key in tm_keys:
        for p in idx.parents(key):
            if p != ROOT:
                assert np.isin(idx.ids(key), idx.ids(p)).all(), (key, p)
                checked += 1
    assert checked > 100


def _pop_order(index, positives):
    """Every key the reference walk pops for P, with no k and no cap."""
    everything = len(index) + 1
    return reference_generate_candidates(
        SetIndex(index), positives, everything, max_duplicate_signature=everything
    )


def _walk_rank(index) -> np.ndarray:
    """Each row's position in ``walk_order``; -1 for a key the walk never reaches."""
    rank = np.full(len(index), -1)
    rank[index.walk_order] = np.arange(len(index.walk_order))
    return rank


def _sorted_by_walk_rank(index, positives):
    """The reachable keys sorted by (-overlap, -count, walk rank)."""
    overlaps = index.overlaps(index.mask(positives))
    rank = _walk_rank(index)
    reachable = [k for k in index.keys() if rank[index.rows[k]] >= 0]
    return sorted(reachable, key=lambda k: (-overlaps[index.rows[k]], -index.count(k),
                                            rank[index.rows[k]]))


def test_walk_rank_breaks_ties_as_the_walk_does():
    from repro.index.inverted import HeuristicIndex

    # 'tr:a b' (a child of 'tr:b') has the coverage of 'tr:b' and 'tr:c':
    # the walk reaches it only through 'tr:b', so it pops between them,
    # where a plain key sort would put it first. 'tr:x y' has no parent
    # in the index: the walk never reaches it.
    idx = HeuristicIndex({"tr:b": [0, 1, 2], "tr:a b": [0, 1, 2], "tr:c": [0, 1, 2],
                          "tr:d": [5], "tr:z": [3, 4], "tr:x y": [0, 3]}, n_sentences=6)
    assert [idx.key(r) for r in idx.walk_order] == ["tr:b", "tr:a b", "tr:c", "tr:z", "tr:d"]
    assert _walk_rank(idx)[idx.rows["tr:x y"]] == -1
    for positives in (set(), {0}, {3}, {0, 3, 5}, set(range(6))):
        want = _pop_order(idx, positives)
        assert "tr:x y" not in want
        assert _sorted_by_walk_rank(idx, positives) == want
        for k in (0, 1, 2, 3, 10):
            for cap in (0, 1, 2, 3):
                assert _generate(idx, positives, k, max_duplicate_signature=cap) == \
                    reference_generate_candidates(SetIndex(idx), positives, k,
                                                  max_duplicate_signature=cap)
    assert _generate(idx, {0}, 0) == []
    assert _generate(idx, {0}, 10, max_duplicate_signature=0) == []
    assert _generate(idx, {0}, 3) == ["tr:b", "tr:a b", "tr:c"]


def test_walk_order_on_random_toy_indexes():
    from tests.test_loop_properties import N_INDEXES, _toy_corpus

    rng = np.random.default_rng(20240)
    for i in range(N_INDEXES):
        index, labels, _ = _toy_corpus(rng)
        n = index.n_sentences
        pick = np.random.default_rng(i)
        for positives in (set(), set(np.flatnonzero(labels).tolist()),
                          set(pick.choice(n, 3, replace=False).tolist()),
                          set(pick.choice(n, n // 2, replace=False).tolist())):
            assert _sorted_by_walk_rank(index, positives) == _pop_order(index, positives), i
            for k, cap in ((5, 3), (40, 1), (500, 3)):
                assert _generate(index, positives, k, max_duplicate_signature=cap) == \
                    reference_generate_candidates(SetIndex(index), positives, k,
                                                  max_duplicate_signature=cap), (i, k, cap)
