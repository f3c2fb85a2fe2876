"""Hierarchical arrangement of candidate heuristics + cleanup (§3.2).

Nodes are candidate keys; an edge ``parent → child`` exists when the
child is one derivation step stricter (per the owning grammar's
``parents_of``) and both endpoints are candidates. The cleanup pass
drops heuristics whose coverage adds no new positives over the already
identified set ``P`` — "the traversal component will never query a
heuristic that does not add any new positives".
"""
from __future__ import annotations

import numpy as np

from repro.grammar.base import parents_of
from repro.index.inverted import HeuristicIndex


class Hierarchy:
    """Subset/superset DAG over a candidate set."""

    def __init__(
        self,
        nodes: list[str],
        index: HeuristicIndex,
        positives: set[int] | np.ndarray = (),
    ):
        self.index = index
        # P, as a bool mask, that the nodes were arranged for.
        self.mask = index.mask(positives)
        # key → (benefit, avg benefit) under ``mask``, filled by the
        # traversal strategies. Darwin builds a new hierarchy whenever P,
        # and with it the classifier scores, changes.
        self.benefits: dict[str, tuple[float, float]] = {}
        self.nodes: list[str] = list(nodes)
        node_set = set(self.nodes)
        self._parents: dict[str, list[str]] = {}
        self._children: dict[str, list[str]] = {}
        for n in self.nodes:
            ps = [p for p in parents_of(n) if p in node_set]
            self._parents[n] = ps
            for p in ps:
                self._children.setdefault(p, []).append(n)
        for kids in self._children.values():
            kids.sort()

    @classmethod
    def build(
        cls,
        index: HeuristicIndex,
        candidates: list[str],
        positives: set[int] | np.ndarray,
    ) -> "Hierarchy":
        """Arrange the candidates that add new positives (the cleanup):
        a candidate whose overlap with P equals its count is dropped."""
        mask = index.mask(positives)
        kept = [c for c in candidates if not mask[index.ids(c)].all()]
        return cls(kept, index, mask)

    def parents(self, key: str) -> list[str]:
        """Hierarchy parents; falls back to the index for off-hierarchy keys
        (LocalSearch expands the neighborhood on the fly, §3.4)."""
        if key in self._parents:
            return self._parents[key]
        return self.index.parents(key)

    def children(self, key: str) -> list[str]:
        if key in self._children:
            return self._children[key]
        return self.index.children(key)

    def __contains__(self, key: str) -> bool:
        return key in self._parents

    def __len__(self) -> int:
        return len(self.nodes)
