"""Hierarchical arrangement of candidate heuristics + cleanup (§3.2).

Nodes are candidate keys; an edge ``parent → child`` exists when the
child is one derivation step stricter (per the owning grammar's
``parents_of``) and both endpoints are candidates. The cleanup pass
drops heuristics whose coverage adds no new positives over the already
identified set ``P`` — "the traversal component will never query a
heuristic that does not add any new positives".
"""
from __future__ import annotations

from repro.grammar.base import parents_of
from repro.index.inverted import HeuristicIndex


class Hierarchy:
    """Subset/superset DAG over a candidate set."""

    def __init__(self, nodes: list[str], index: HeuristicIndex):
        self.index = index
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
        cls, index: HeuristicIndex, candidates: list[str], positives: set[int]
    ) -> "Hierarchy":
        """Arrange the candidates that add new positives (the cleanup)."""
        return cls([c for c in candidates if not (index.coverage(c) <= positives)], index)

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
