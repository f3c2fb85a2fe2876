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

    ``seed_rule`` must be a key present in the index that covers at
    least one sentence (the paper assumes the seed yields ≥2 positives);
    alternatively ``seed_positive_ids`` starts the pipeline from a
    couple of labeled sentences, each in ``[0, n_sentences)``.
    ``true_labels`` is only used to annotate the history with recall —
    it never influences the search. ``oracle(key, ids)`` receives the
    key's sorted sentence ids as an integer array.
    """
    if seed_rule is None and not seed_positive_ids:
        raise ValueError("provide seed_rule or seed_positive_ids")

    rules: list[str] = []
    if seed_rule is not None:
        if seed_rule not in index:
            raise KeyError(f"seed rule {seed_rule!r} not found in index")
        seed_ids = index.ids(seed_rule)
        if not len(seed_ids):
            raise ValueError(f"seed rule {seed_rule!r} covers no sentence")
        rules.append(seed_rule)
    else:
        seed_ids = np.fromiter(seed_positive_ids, dtype=np.int64)
        bad = seed_ids[(seed_ids < 0) | (seed_ids >= index.n_sentences)]
        if len(bad):
            raise ValueError(
                f"seed_positive_ids {sorted(bad.tolist())} outside "
                f"[0, {index.n_sentences})"
            )
    # P, as a bool mask over sentences, and |C_k ∩ P| for every index
    # row. A YES makes a new mask and new counts, so a hierarchy keeps
    # the P it was built for.
    mask = index.mask(seed_ids)
    overlaps = index.overlaps(mask)
    classifier.fit(np.flatnonzero(mask))

    n_true_pos = int(true_labels.sum()) if true_labels is not None else None
    asked: set[str] = set(rules)
    history: list[dict] = []

    def rebuild() -> Hierarchy:
        """Candidates and hierarchy for the current P (Alg 2 + cleanup)."""
        cands = generate_candidates(index, mask, K_CANDIDATES, overlaps=overlaps)
        return Hierarchy.build(index, cands, mask, scores=classifier.scores(),
                               overlaps=overlaps)

    hierarchy = rebuild()
    # LocalSearch starts from the seed's neighbourhood (Alg 3 line 3): the
    # parents of the seed rule, a known YES, or the rules with evidence on
    # the seed sentences.
    start = hierarchy.parents(seed_rule) if seed_rule is not None else hierarchy.overlapping()
    strat = STRATEGIES[strategy](*start)
    stale = False  # P changed: rebuild before the next query, never after the last

    for q in range(1, budget + 1):
        if stale:
            hierarchy = rebuild()
            stale = False
        key = strat.select(hierarchy, asked)
        if key is None:
            break
        asked.add(key)
        ids = index.ids(key)
        answer = bool(oracle(key, ids))
        strat.feedback(key, answer, hierarchy)
        if answer:
            rules.append(key)
            new = ids[~mask[ids]]  # only the newly covered sentences
            mask = mask.copy()
            mask[new] = True
            overlaps = overlaps + index.overlaps_of(new)
            classifier.fit(np.flatnonzero(mask))
            stale = True
        rec = {
            "query": q,
            "key": key,
            "answer": answer,
            "n_positives": int(mask.sum()),
        }
        if n_true_pos:
            rec["recall"] = float(true_labels[mask].sum() / n_true_pos)
        history.append(rec)

    positives = set(np.flatnonzero(mask).tolist())
    return DarwinResult(rules=rules, positives=positives, classifier=classifier, history=history)
