"""The end-to-end Darwin driver — Algorithm 1 (§3).

Wiring: the corpus has been sketched and aggregated into a
:class:`~repro.index.inverted.HeuristicIndex` by Spark; sentence
feature vectors came from Spark-side embeddings. This driver runs the
interactive loop over those artifacts: candidate generation (Alg 2) →
hierarchy arrangement + cleanup → traversal pick (Alg 3–5) → oracle →
classifier retrain + score update (§3.7), until the query budget is
spent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.candidates import generate_candidates
from repro.core.hierarchy import Hierarchy
from repro.core.traversal import STRATEGIES

# Candidates generated per hierarchy rebuild (Alg 2's k).
K_CANDIDATES = 500


@dataclass
class DarwinResult:
    """Outputs of Algorithm 1: rules R, positives P, classifier, trace."""

    rules: list[str]
    positives: set[int]
    classifier: object
    history: list[dict] = field(default_factory=list)

    def recall_curve(self) -> list[tuple[int, float]]:
        """(#oracle queries, recall) after each query (needs true labels)."""
        return [(h["query"], h["recall"]) for h in self.history if "recall" in h]


def run_darwin(
    index,
    classifier,
    oracle,
    *,
    seed_rule: str | None = None,
    seed_positive_ids: set[int] | None = None,
    budget: int = 100,
    strategy: str = "hybrid",
    true_labels: np.ndarray | None = None,
) -> DarwinResult:
    """Run Darwin (Algorithm 1) and return rules/positives/classifier.

    ``seed_rule`` must be a key present in the index (the paper assumes
    the seed yields ≥2 positives); alternatively ``seed_positive_ids``
    starts the pipeline from a couple of labeled sentences.
    ``true_labels`` is only used to annotate the history with recall —
    it never influences the search.
    """
    if seed_rule is None and not seed_positive_ids:
        raise ValueError("provide seed_rule or seed_positive_ids")

    rules: list[str] = []
    if seed_rule is not None:
        if seed_rule not in index:
            raise KeyError(f"seed rule {seed_rule!r} not found in index")
        positives = set(index.coverage(seed_rule))
        rules.append(seed_rule)
    else:
        positives = set(seed_positive_ids)

    classifier.fit(positives)
    scores = classifier.scores()

    strat = STRATEGIES[strategy](seed_rule or "*")

    n_true_pos = int(true_labels.sum()) if true_labels is not None else None
    asked: set[str] = set(rules)
    history: list[dict] = []

    cands = generate_candidates(index, positives, K_CANDIDATES)
    hierarchy = Hierarchy.build(index, cands, positives)
    # Prime the strategy with the seed's (known-YES) verdict so
    # LocalSearch starts from the seed's neighborhood (Alg 3 line 3).
    if seed_rule is not None:
        strat.feedback(seed_rule, True, hierarchy)
    else:
        # Seeded from labeled sentences: the local neighborhood is the
        # set of candidate rules with evidence on those sentences.
        strat.prime([k for k in hierarchy.nodes if index.coverage(k) & positives])
    stale = False  # regenerate candidates whenever P changes

    for q in range(1, budget + 1):
        if stale:
            cands = generate_candidates(index, positives, K_CANDIDATES)
            hierarchy = Hierarchy.build(index, cands, positives)
            stale = False
        key = strat.select(hierarchy, positives, scores, asked)
        if key is None:
            break
        asked.add(key)
        answer = bool(oracle(key, index.coverage(key)))
        strat.feedback(key, answer, hierarchy)
        if answer:
            rules.append(key)
            positives |= index.coverage(key)
            classifier.fit(positives)
            scores = classifier.scores()
            stale = True
        rec = {
            "query": q,
            "key": key,
            "answer": answer,
            "n_positives": len(positives),
        }
        if n_true_pos:
            idx = np.fromiter(positives, dtype=np.int64)
            rec["recall"] = float(true_labels[idx].sum() / n_true_pos)
        history.append(rec)

    return DarwinResult(rules=rules, positives=positives, classifier=classifier, history=history)
