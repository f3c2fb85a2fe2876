"""Tests for Algorithm 2 (candidate generation) and the hierarchy."""
import numpy as np
import pytest

from repro.core.candidates import generate_candidates
from repro.core.hierarchy import Hierarchy
from repro.grammar.base import ROOT
from repro.index.inverted import HeuristicIndex


def _hierarchy(index, nodes, positives=()):
    """The nodes arranged (no cleanup) for P = ``positives``."""
    mask = index.mask(positives)
    return Hierarchy(nodes, index, mask, scores=np.full(index.n_sentences, 0.5),
                     overlaps=index.overlaps(mask))


def _candidates(index, positives, k, **kwargs):
    """Algorithm 2's candidates for P = ``positives``."""
    mask = index.mask(positives)
    return generate_candidates(index, mask, k, overlaps=index.overlaps(mask), **kwargs)


def test_candidates_respect_k(toy_index):
    assert len(_candidates(toy_index, {2, 3}, k=3)) == 3


def test_candidates_prefer_positive_overlap(toy_index):
    cands = _candidates(toy_index, {2, 3, 4}, k=2)
    # 'tr:a' and 'tr:b' both overlap P with 3; they outrank 'tr:c'/'tr:d'.
    assert set(cands) <= {"tr:a", "tr:b"}


def test_candidates_tiebreak_by_count(toy_index):
    # With P empty, overlap ties at 0 → highest-coverage keys first.
    cands = _candidates(toy_index, (), k=2)
    assert set(cands) == {"tr:a", "tr:b"}  # both count 5


def test_candidates_descend_after_best(toy_index):
    # After picking 'tr:a', its child 'tr:a b' becomes reachable.
    cands = _candidates(toy_index, {2, 3, 4}, k=4)
    assert "tr:a b" in cands


def test_candidates_no_duplicates(toy_index):
    cands = _candidates(toy_index, {2, 3, 4}, k=6)
    assert len(cands) == len(set(cands))


def test_candidates_deterministic(toy_index):
    a = _candidates(toy_index, {2, 3}, k=5)
    b = _candidates(toy_index, {2, 3}, k=5)
    assert a == b


def test_diversity_cap():
    # Five keys with identical coverage — the signature cap keeps 2.
    cov = {f"tr:k{i}": frozenset({0, 1}) for i in range(5)}
    idx = HeuristicIndex(cov, n_sentences=4)
    cands = _candidates(idx, {0, 1}, k=10, max_duplicate_signature=2)
    assert len(cands) == 2


def test_hierarchy_edges(toy_index):
    h = _hierarchy(toy_index, ["tr:a", "tr:b", "tr:a b"])
    assert set(h.parents("tr:a b")) == {"tr:a", "tr:b"}
    assert h.children("tr:a") == ["tr:a b"]
    assert "tr:a" in h.nodes and "tr:zzz" not in h.nodes


def test_hierarchy_cleanup_drops_covered(toy_index):
    # 'tr:c d' covers {7} ⊆ P → cleaned; 'tr:c' covers {7,8} ⊄ P → kept.
    mask = toy_index.mask({7})
    h = Hierarchy.build(toy_index, ["tr:c", "tr:c d"], mask, scores=np.full(10, 0.5),
                        overlaps=toy_index.overlaps(mask))
    assert h.nodes == ["tr:c"]


def test_hierarchy_no_cleanup(toy_index):
    # The constructor arranges every node it is given; only build() cleans.
    h = _hierarchy(toy_index, ["tr:c", "tr:c d"], {7})
    assert h.nodes == ["tr:c", "tr:c d"]


def test_hierarchy_fallback_to_index(toy_index):
    h = _hierarchy(toy_index, ["tr:a"])
    # 'tr:a b' not in hierarchy — parents come from the index instead.
    assert set(h.parents("tr:a b")) == {"tr:a", "tr:b"}


def test_hierarchy_children_fallback_to_index(toy_index):
    h = _hierarchy(toy_index, ["tr:a", "tr:b", "tr:c"])
    # A node with no child among the nodes, and an off-hierarchy key,
    # get the index's children.
    assert h.children("tr:a") == ["tr:a b"]
    assert h.children("tr:d") == ["tr:c d"]
    # A node with a child among the nodes gets only those children.
    h = _hierarchy(toy_index, ["tr:c", "tr:c d", "tr:d"])
    assert h.children("tr:c") == ["tr:c d"]

