"""Traversal-strategy tests on hierarchies with fixed scores, pinning
each branch of Algorithms 3–5."""
import numpy as np
import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.traversal import (
    STRATEGIES,
    TAU,
    HighC,
    HighP,
    HybridSearch,
    LocalSearch,
    UniversalSearch,
)

NODES = ["tr:a", "tr:b", "tr:a b", "tr:c", "tr:c d", "tr:d"]
SCORES = np.array([0.9, 0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.9, 0.1, 0.1])


def _hierarchy(index, positives=(), scores=SCORES, nodes=NODES):
    """The nodes arranged (no cleanup) for P = ``positives``."""
    mask = index.mask(positives)
    return Hierarchy(nodes, index, mask, scores=scores, overlaps=index.overlaps(mask))


@pytest.fixture()
def setup(toy_index):
    return _hierarchy(toy_index)


def test_benefit_excludes_covered(toy_index):
    # cov('tr:a') = {0..4}; P = {0,1} → new = {2,3,4} each scored 0.9.
    total, avg = _hierarchy(toy_index, {0, 1}).benefit("tr:a")
    assert total == pytest.approx(2.7)
    assert avg == pytest.approx(0.9)


def test_benefit_zero_when_fully_covered(toy_index):
    assert _hierarchy(toy_index, {0, 1, 2, 3, 4}).benefit("tr:a") == (0.0, 0.0)


def test_benefit_cache_consistent(setup):
    h = setup
    a = h.benefit("tr:b")
    b = h.benefit("tr:b")
    assert a == b


def test_local_search_yes_adds_parents(setup):
    h = setup
    ls = LocalSearch("tr:a b")
    ls.feedback("tr:a b", True, h)
    assert ls.cands == {"tr:a", "tr:b"}


def test_local_search_no_adds_children(setup):
    h = setup
    ls = LocalSearch("tr:a")
    ls.feedback("tr:a", False, h)
    assert ls.cands == {"tr:a b"}


def test_local_search_selects_max_benefit(setup):
    h = setup
    ls = LocalSearch("tr:a", "tr:c")
    # benefit(a)=4*0.9+0.1 vs benefit(c)=0.9+0.1 → picks 'tr:a'.
    assert ls.select(h, asked=set()) == "tr:a"


def test_local_search_skips_asked_and_refills(toy_index):
    h = _hierarchy(toy_index, {7})
    ls = LocalSearch("tr:a")
    # Neighborhood exhausted → refills with rules overlapping P.
    got = ls.select(h, asked={"tr:a"})
    assert got in {"tr:c", "tr:c d", "tr:d"}


def test_local_search_returns_none_when_nothing_overlaps():
    from repro.index.inverted import HeuristicIndex

    idx = HeuristicIndex({"tr:x": frozenset({0})}, n_sentences=2)
    h = _hierarchy(idx, {1}, np.array([0.5, 0.5]), ["tr:x"])
    ls = LocalSearch("tr:x")
    assert ls.select(h, asked={"tr:x"}) is None


def test_universal_filters_avg_benefit(setup):
    h = setup
    us = UniversalSearch()
    # 'tr:d' new = {7,9} avg (0.9+0.1)/2 = 0.5 → filtered (≤ 0.5).
    # 'tr:a' avg 0.9 passes and has the largest benefit.
    assert us.select(h, asked=set()) == "tr:a"


def test_universal_fallback_prefers_precision(toy_index):
    low = np.full(10, 0.3)
    low[7] = 0.45
    us = UniversalSearch()
    # Nothing passes 0.5 → falls back to argmax (avg, benefit):
    # 'tr:c d' covers {7} only → avg 0.45, the maximum.
    assert us.select(_hierarchy(toy_index, scores=low), asked=set()) == "tr:c d"


def test_universal_respects_asked(setup):
    h = setup
    us = UniversalSearch()
    first = us.select(h, asked=set())
    second = us.select(h, asked={first})
    assert second != first


def test_universal_none_when_exhausted(setup):
    h = setup
    assert UniversalSearch().select(h, asked=set(h.nodes)) is None


def test_hybrid_starts_universal(setup):
    h = setup
    hs = HybridSearch("tr:a b")
    assert hs.universal_mode
    assert hs.select(h, asked=set()) == "tr:a"


def test_hybrid_switches_after_tau_failures(setup):
    h = setup
    hs = HybridSearch("tr:a b")
    for i in range(TAU):
        hs.feedback(f"k{i}", False, h)
    assert hs.universal_mode and hs.attempt == TAU
    hs.feedback("k", False, h)
    assert not hs.universal_mode  # TAU + 1 failures > τ → toggled
    assert hs.attempt == 0


def test_hybrid_yes_resets_attempts(setup):
    h = setup
    hs = HybridSearch("tr:a b")
    hs.feedback("tr:a", False, h)
    hs.feedback("tr:a b", True, h)
    assert hs.attempt == 0
    assert hs.universal_mode


def test_hybrid_toggles_when_mode_exhausted(toy_index):
    h = _hierarchy(toy_index, {7})
    hs = HybridSearch("tr:a")
    got = hs.select(h, asked=set(h.nodes))
    # Universal pool empty → toggles to local, which refills from
    # P-overlap but everything is asked → None.
    assert got is None
    assert not hs.universal_mode


def test_highp_picks_expected_precision(setup):
    h = setup
    hp = HighP()
    # mean score over full coverage: 'tr:a'=0.9 (5×0.9);
    # 'tr:c d'={7}→0.9; tie broken lexicographically → 'tr:a'.
    assert hp.select(h, asked=set()) == "tr:a"


def test_highp_reads_the_hierarchy_scores(toy_index):
    scores = SCORES.copy()
    scores[7] = 1.0  # 'tr:c d' = {7} now has the highest mean score
    assert HighP().select(_hierarchy(toy_index, scores=scores), asked=set()) == "tr:c d"


def test_highc_ignores_scores_and_uses_whole_index(toy_index):
    h = _hierarchy(toy_index, scores=np.zeros(10))
    hc = HighC()
    assert hc.select(h, asked=set()) == "tr:a"  # count 5, lexical tie-break vs 'tr:b'
    # Next by count: 'tr:a b' (3) — drawn from the whole index even if
    # a curated hierarchy were smaller.
    assert hc.select(h, asked={"tr:a", "tr:b"}) == "tr:a b"


def test_strategy_registry():
    assert set(STRATEGIES) == {"local", "universal", "hybrid", "highp", "highc"}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strategies_start_from_any_neighbourhood(toy_index, name):
    # LocalSearch (alone or inside HybridSearch) starts from exactly the
    # keys it is given; the others ignore them.
    h = _hierarchy(toy_index, {7})
    for start in ((), ("tr:a",), ("tr:a b", "tr:c", "tr:a")):
        strat = STRATEGIES[name](*start)
        if name in ("local", "hybrid"):
            local = strat if name == "local" else strat.local
            assert local.cands == set(start)
        assert strat.select(h, asked=set()) in toy_index.keys()


def test_local_search_never_selects_the_root(toy_index):
    # A unigram's parent is the root '*': a start neighbourhood holding
    # only the root refills from the rules overlapping P instead.
    h = _hierarchy(toy_index, {7})
    ls = LocalSearch(*h.parents("tr:e"))
    assert ls.cands == {"*"}
    assert ls.select(h, asked=set()) in {"tr:c", "tr:c d", "tr:d"}


def test_benefit_comes_from_the_hierarchy_scores(toy_index):
    # Two hierarchies over one P that differ only in their scores: each
    # benefit is computed from, and memoized on, its own hierarchy.
    mask = toy_index.mask({0, 1})
    s1 = np.linspace(0.1, 0.9, 10)
    s2 = s1[::-1].copy()
    overlaps = toy_index.overlaps(mask)
    h1 = Hierarchy.build(toy_index, ["tr:a", "tr:b"], mask, scores=s1, overlaps=overlaps)
    h2 = Hierarchy.build(toy_index, ["tr:a", "tr:b"], mask, scores=s2, overlaps=overlaps)
    for h, s in ((h1, s1), (h2, s2), (h1, s1)):
        total, avg = h.benefit("tr:a")
        assert total == pytest.approx(s[2:5].sum())
        assert avg == pytest.approx(s[2:5].mean())


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_select_adds_no_attributes_to_hierarchy(toy_index, name):
    scores = np.linspace(0.1, 0.9, 10)
    mask = toy_index.mask({7})
    h = Hierarchy.build(toy_index, ["tr:a", "tr:b", "tr:a b", "tr:c", "tr:d"], mask,
                        scores=scores, overlaps=toy_index.overlaps(mask))
    before = set(vars(h))
    strat = STRATEGIES[name]("tr:c d")
    strat.select(h, asked=set())
    strat.select(h, asked={"tr:a", "tr:b"})
    assert set(vars(h)) == before
