"""Snuba baseline (Varma & Ré, PVLDB'19) — automatic heuristic mining
from a labeled subset, as compared against in §4.2 (Figs 7–8).

Faithful-to-behaviour simplification (DESIGN.md §2): Snuba can only
synthesize heuristics from features *present in its labeled sample* and
selects them by performance on that sample. We therefore:

1. take candidate keys from the derivation sketches of the labeled
   sentences only (via the index: keys overlapping the labeled set);
2. iteratively pick the candidate with the best F1 *on the labeled
   subset*, subject to a Jaccard-diversity cap against already chosen
   rules (Snuba's diverse-committee criterion);
3. stop when no candidate clears the precision floor / F1 gain, or at
   ``max_rules``.

This reproduces the failure mode the paper probes: with a biased or
tiny labeled sample, entire pattern families are invisible to Snuba.
"""
from __future__ import annotations

import numpy as np

from repro.index.inverted import HeuristicIndex


def run_snuba(
    index: HeuristicIndex,
    labeled_ids: list[int],
    labels: np.ndarray,
    *,
    max_rules: int = 25,
    min_precision: float = 0.7,
    min_positive_overlap: int = 1,
    max_jaccard: float = 0.8,
) -> list[str]:
    """Mine rules from the labeled subset; return selected keys."""
    labeled = set(int(i) for i in labeled_ids)
    pos = {i for i in labeled if labels[i] == 1}
    if not pos:
        return []

    # Candidates: every indexed heuristic with evidence in the sample.
    labeled_mask = index.mask(labeled)
    evidence = index.overlaps(index.mask(pos))
    cands: dict[str, frozenset[int]] = {}
    for key, n_pos in zip(index.keys(), evidence):
        if n_pos >= min_positive_overlap:
            ids = index.ids(key)
            cands[key] = frozenset(ids[labeled_mask[ids]].tolist())

    chosen: list[str] = []
    chosen_cov: list[frozenset[int]] = []
    covered_pos: set[int] = set()

    def f1_on_labeled(cov_l: frozenset[int]) -> float:
        tp = len(cov_l & pos)
        if tp == 0:
            return 0.0
        p = tp / len(cov_l)
        r = tp / len(pos)
        return 2 * p * r / (p + r)

    while len(chosen) < max_rules and cands:
        best = max(
            cands,
            key=lambda k: (f1_on_labeled(cands[k]), len(cands[k]), [-ord(c) for c in k]),
        )
        cov_l = cands.pop(best)
        prec = len(cov_l & pos) / len(cov_l)
        if prec < min_precision:
            continue
        if not (cov_l & pos) - covered_pos:
            continue  # adds no new labeled positive
        if any(
            len(cov_l & c) / max(1, len(cov_l | c)) > max_jaccard for c in chosen_cov
        ):
            continue  # too similar to an already chosen rule
        chosen.append(best)
        chosen_cov.append(cov_l)
        covered_pos |= cov_l & pos
    return chosen


def snuba_positives(index: HeuristicIndex, rules: list[str]) -> set[int]:
    """Union coverage of the mined rules over the whole corpus."""
    out: set[int] = set()
    for r in rules:
        out.update(index.ids(r).tolist())
    return out
