"""Tests for Algorithm 2 (candidate generation) and the hierarchy."""
import pytest

from repro.core.candidates import generate_candidates
from repro.core.hierarchy import Hierarchy
from repro.grammar.base import ROOT
from repro.index.inverted import HeuristicIndex


def test_candidates_respect_k(toy_index):
    assert len(generate_candidates(toy_index, {2, 3}, k=3)) == 3


def test_candidates_prefer_positive_overlap(toy_index):
    cands = generate_candidates(toy_index, {2, 3, 4}, k=2)
    # 'tr:a' and 'tr:b' both overlap P with 3; they outrank 'tr:c'/'tr:d'.
    assert set(cands) <= {"tr:a", "tr:b"}


def test_candidates_tiebreak_by_count(toy_index):
    # With P empty, overlap ties at 0 → highest-coverage keys first.
    cands = generate_candidates(toy_index, set(), k=2)
    assert set(cands) == {"tr:a", "tr:b"}  # both count 5


def test_candidates_descend_after_best(toy_index):
    # After picking 'tr:a', its child 'tr:a b' becomes reachable.
    cands = generate_candidates(toy_index, {2, 3, 4}, k=4)
    assert "tr:a b" in cands


def test_candidates_no_duplicates(toy_index):
    cands = generate_candidates(toy_index, {2, 3, 4}, k=6)
    assert len(cands) == len(set(cands))


def test_candidates_deterministic(toy_index):
    a = generate_candidates(toy_index, {2, 3}, k=5)
    b = generate_candidates(toy_index, {2, 3}, k=5)
    assert a == b


def test_diversity_cap():
    # Five keys with identical coverage — the signature cap keeps 2.
    cov = {f"tr:k{i}": frozenset({0, 1}) for i in range(5)}
    idx = HeuristicIndex(cov, n_sentences=4)
    cands = generate_candidates(idx, {0, 1}, k=10, max_duplicate_signature=2)
    assert len(cands) == 2


def test_hierarchy_edges(toy_index):
    h = Hierarchy(["tr:a", "tr:b", "tr:a b"], toy_index)
    assert set(h.parents("tr:a b")) == {"tr:a", "tr:b"}
    assert h.children("tr:a") == ["tr:a b"]
    assert "tr:a" in h and "tr:zzz" not in h


def test_hierarchy_cleanup_drops_covered(toy_index):
    # 'tr:c d' covers {7} ⊆ P → cleaned; 'tr:c' covers {7,8} ⊄ P → kept.
    h = Hierarchy.build(toy_index, ["tr:c", "tr:c d"], positives={7})
    assert "tr:c" in h and "tr:c d" not in h


def test_hierarchy_no_cleanup(toy_index):
    # The constructor arranges every node it is given; only build() cleans.
    h = Hierarchy(["tr:c", "tr:c d"], toy_index)
    assert "tr:c d" in h


def test_hierarchy_fallback_to_index(toy_index):
    h = Hierarchy(["tr:a"], toy_index)
    # 'tr:a b' not in hierarchy — parents come from the index instead.
    assert set(h.parents("tr:a b")) == {"tr:a", "tr:b"}


def test_hierarchy_len(toy_index):
    assert len(Hierarchy(["tr:a", "tr:b"], toy_index)) == 2
