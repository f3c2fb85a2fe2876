"""Hierarchical arrangement of candidate heuristics + cleanup (§3.2).

A :class:`Hierarchy` is the search loop's one view of the positive set
P (a bool mask over sentences, with |C_k ∩ P| for every index row) and
of the classifier scores trained on it; Darwin builds a new one
whenever the oracle says YES. Nodes are the candidate keys that survive
the cleanup pass, which drops heuristics whose coverage adds no new
positives over P — "the traversal component will never query a
heuristic that does not add any new positives": a key is kept iff its
overlap with P is below its count.

Edges are not stored: a node's parents and children are its grammar
parents and index children that are also nodes (§3.4: neighbours come
from the index on the fly). Benefits (§3.3) are computed on demand and
memoized, since they depend only on P and the scores.
"""
from __future__ import annotations

import numpy as np

from repro.grammar.base import parents_of
from repro.index.inverted import HeuristicIndex


class Hierarchy:
    """Candidate heuristics arranged for one P and one score vector."""

    def __init__(
        self,
        nodes: list[str],
        index: HeuristicIndex,
        mask: np.ndarray,
        *,
        scores: np.ndarray,
        overlaps: np.ndarray,
    ):
        self.index = index
        self.nodes: list[str] = list(nodes)
        self._node_set = set(self.nodes)
        self.mask = mask
        self.overlaps = overlaps  # |C_k ∩ P| for every index row
        self.scores = scores
        # key → (benefit, avg benefit) under ``mask`` and ``scores``.
        self._benefits: dict[str, tuple[float, float]] = {}

    @classmethod
    def build(
        cls,
        index: HeuristicIndex,
        candidates: list[str],
        mask: np.ndarray,
        *,
        scores: np.ndarray,
        overlaps: np.ndarray,
    ) -> "Hierarchy":
        """Arrange the candidates (index keys) that add new positives
        (the cleanup): a candidate whose overlap with P equals its count
        is dropped."""
        rows = index.rows
        r = np.fromiter((rows[c] for c in candidates), dtype=np.int64, count=len(candidates))
        keep = (overlaps[r] < index.counts[r]).tolist()
        kept = [c for c, ok in zip(candidates, keep) if ok]
        return cls(kept, index, mask, scores=scores, overlaps=overlaps)

    def benefit(self, key: str) -> tuple[float, float]:
        """(benefit, average benefit) of ``key`` (§3.3): the sum and the
        mean of the scores of ``C_key \\ P``; (0, 0) when that is empty."""
        hit = self._benefits.get(key)
        if hit is None:
            ids = self.index.ids(key)
            vals = self.scores[ids[~self.mask[ids]]]
            hit = (float(vals.sum()), float(vals.mean())) if len(vals) else (0.0, 0.0)
            self._benefits[key] = hit
        return hit

    def overlapping(self) -> list[str]:
        """The nodes whose coverage meets P."""
        rows = self.index.rows
        return [k for k in self.nodes if self.overlaps[rows[k]] > 0]

    def parents(self, key: str) -> list[str]:
        """Parents among the nodes; an off-hierarchy key gets the index's
        parents (LocalSearch expands the neighborhood on the fly, §3.4)."""
        if key not in self._node_set:
            return self.index.parents(key)
        return [p for p in parents_of(key) if p in self._node_set]

    def children(self, key: str) -> list[str]:
        """Children among the nodes; the index's children for an
        off-hierarchy key or a node with no child among the nodes."""
        kids = self.index.children(key)
        if key in self._node_set:
            return [c for c in kids if c in self._node_set] or kids
        return kids
