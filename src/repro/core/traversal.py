"""Hierarchy-traversal strategies (§3.3–3.6, Algorithms 3–5) plus the
HighP/HighC baseline pickers of §4.3.

Shared vocabulary (§3.3): the *benefit* of heuristic ``r`` is
``Σ_{s ∈ C_r \\ P} p_s`` — the classifier's expected number of new
positives — and the *average benefit* is the same sum divided by
``|C_r \\ P|``. UniversalSearch drops candidates whose average benefit
is ≤ 0.5 ("majority of the instances in C_r are expected to be
negatives", Alg 4 line 8).

A strategy is built from its start neighbourhood, ``cls(*start)``: the
keys LocalSearch explores first (Alg 3 line 3). The Darwin driver passes
the seed rule's parents, or the rules overlapping the seed sentences;
the other strategies ignore it. Each strategy exposes
``select(hierarchy, asked)`` → key (or ``None`` when out of moves) and
``feedback(key, yes, hierarchy)``. The hierarchy carries P and the
classifier scores, and computes benefits
(:meth:`~repro.core.hierarchy.Hierarchy.benefit`).
The Darwin driver owns the oracle budget and the asked-set.
"""
from __future__ import annotations

from repro.grammar import ROOT

# τ (§3.6): HybridSearch switches mode once its consecutive NOs exceed it.
TAU = 5


def _argmax(keys, score_fn) -> str | None:
    """Deterministic argmax (ties → lexicographically smallest key).
    ``score_fn`` may return a float or a comparable tuple."""
    best, best_s = None, None
    for k in sorted(keys):
        s = score_fn(k)
        if best_s is None or s > best_s:
            best, best_s = k, s
    return best


class LocalSearch:
    """Algorithm 3: explore the neighborhood of oracle-verified rules.

    YES → replace the rule with its parents (generalize); NO → with its
    children (specialize). Needs no precomputed hierarchy — neighbors
    come from the index on the fly (§3.4 "Efficient Implementation").
    """

    def __init__(self, *start: str):
        self.cands: set[str] = set(start)

    def select(self, hierarchy, asked) -> str | None:
        # The root ('*', a unigram's parent) matches everything: never a rule.
        pool = [k for k in self.cands if k not in asked and k != ROOT]
        if not pool:
            # Graph neighborhood exhausted (e.g. a unigram seed whose
            # only parent is the root): refill with candidates that are
            # local in *coverage* space — rules overlapping the
            # positives found so far.
            self.cands.update(k for k in hierarchy.overlapping() if k not in asked)
            pool = [k for k in self.cands if k not in asked and k != ROOT]
            if not pool:
                return None
        return _argmax(pool, lambda k: hierarchy.benefit(k)[0])

    def feedback(self, key, yes, hierarchy) -> None:
        self.cands.discard(key)
        self.cands.update(hierarchy.parents(key) if yes else hierarchy.children(key))


class _Stateless:
    """A strategy that ignores its start neighbourhood and the answers."""

    def __init__(self, *start: str):
        pass

    def feedback(self, key, yes, hierarchy) -> None:
        pass


class UniversalSearch(_Stateless):
    """Algorithm 4: global argmax-benefit over the whole hierarchy,
    filtered by average benefit > 0.5. When the filter empties the pool
    we fall back to the unfiltered argmax so the budget is spent on
    oracle queries rather than silently burned (deviation from the
    pseudocode's query-count-on-skip; noted in EXPERIMENTS.md)."""

    def select(self, hierarchy, asked) -> str | None:
        pool = [k for k in hierarchy.nodes if k not in asked]
        if not pool:
            return None
        passing = [k for k in pool if hierarchy.benefit(k)[1] > 0.5]
        if passing:
            return _argmax(passing, lambda k: hierarchy.benefit(k)[0])
        # Nothing clears the 0.5 bar (weak early classifier, §3.5's
        # noted failure mode): prefer expected precision over raw mass
        # so the budget is not burned on huge junk rules.
        def avg_then_benefit(k: str) -> tuple[float, float]:
            total, avg = hierarchy.benefit(k)
            return avg, total

        return _argmax(pool, avg_then_benefit)


class HybridSearch:
    """Algorithm 5: start in universal mode; when the consecutive
    unsuccessful attempts exceed ``TAU``, switch modes and reset the
    counter (§3.6). A YES resets the failure counter."""

    def __init__(self, *start: str):
        self.local = LocalSearch(*start)
        self.universal = UniversalSearch()
        self.universal_mode = True
        self.attempt = 0

    def _mode(self):
        return self.universal if self.universal_mode else self.local

    def select(self, hierarchy, asked) -> str | None:
        q = self._mode().select(hierarchy, asked)
        if q is None:  # current mode exhausted → toggle once
            self.universal_mode = not self.universal_mode
            self.attempt = 0
            q = self._mode().select(hierarchy, asked)
        return q

    def feedback(self, key, yes, hierarchy) -> None:
        # LocalSearch observes every answer so a mode switch resumes
        # from an informed state.
        self.local.feedback(key, yes, hierarchy)
        if yes:
            self.attempt = 0
        else:
            self.attempt += 1
            if self.attempt > TAU:
                self.universal_mode = not self.universal_mode
                self.attempt = 0


class HighP(_Stateless):
    """§4.3 baseline: query the rule the classifier deems most precise
    (max mean score over its full coverage set) — tends to pick rules
    with very small coverage, as the paper observes."""

    def select(self, hierarchy, asked) -> str | None:
        pool = [k for k in hierarchy.nodes if k not in asked]
        if not pool:
            return None

        def expected_precision(k: str) -> float:
            ids = hierarchy.index.ids(k)
            return float(hierarchy.scores[ids].mean()) if len(ids) else 0.0

        return _argmax(pool, expected_precision)


class HighC(_Stateless):
    """§4.3 baseline: query the maximum-coverage rule "irrespective of
    their expected precision" — over the *whole index*, not Darwin's
    curated candidates. Its suggestions are mostly rejected by the
    oracle, which is why the paper omits it from the plots."""

    _order: list[str] | None = None

    def select(self, hierarchy, asked) -> str | None:
        if self._order is None:
            idx = hierarchy.index
            self._order = sorted(idx.keys(), key=lambda k: (-idx.count(k), k))
        for k in self._order:
            if k not in asked:
                return k
        return None


STRATEGIES = {
    "local": LocalSearch,
    "universal": UniversalSearch,
    "hybrid": HybridSearch,
    "highp": HighP,
    "highc": HighC,
}
