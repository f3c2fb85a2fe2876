"""The CSR heuristic index: postings, the P mask and per-key overlaps."""
import numpy as np
import pytest

from repro.core.candidates import generate_candidates
from repro.core.hierarchy import Hierarchy
from repro.grammar.base import ROOT
from repro.index.inverted import HeuristicIndex


def test_ids_are_sorted_int32_views(toy_index):
    ids = toy_index.ids("tr:a")
    assert ids.dtype == np.int32 and ids.tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        ids[0] = 9  # read-only: a view into the shared postings
    assert toy_index.ids("tr:zzz").tolist() == []
    assert toy_index.ids(ROOT).tolist() == list(range(10))


def test_mapping_constructor_sorts_and_dedupes():
    idx = HeuristicIndex({"tr:a": [3, 1, 3, 2], "tr:b": frozenset({5, 0})}, n_sentences=6)
    assert idx.ids("tr:a").tolist() == [1, 2, 3]
    assert idx.count("tr:a") == 3
    assert idx.coverage("tr:b") == frozenset({0, 5})


def test_overlaps_match_sets(toy_index):
    rng = np.random.default_rng(0)
    for _ in range(20):
        mask = rng.random(10) < 0.4
        p = set(np.flatnonzero(mask).tolist())
        want = [len(toy_index.coverage(k) & p) for k in toy_index.keys()]
        assert toy_index.overlaps(mask).tolist() == want


def test_overlaps_with_empty_lists():
    # Empty rows first, in the middle and last.
    idx = HeuristicIndex(
        {"tr:a": [], "tr:b": [1, 2], "tr:c": [], "tr:d": [0, 2], "tr:e": []}, n_sentences=3
    )
    mask = np.array([False, True, True])
    assert idx.overlaps(mask).tolist() == [0, 2, 0, 1, 0]


def test_mask_from_ids(toy_index):
    mask = toy_index.mask({2, 3})
    assert mask.dtype == bool and np.flatnonzero(mask).tolist() == [2, 3]
    assert np.array_equal(toy_index.mask(toy_index.ids("tr:a b")), toy_index.mask([4, 3, 2]))
    assert not toy_index.mask(set()).any()


def test_empty_index():
    idx = HeuristicIndex({}, n_sentences=4)
    assert len(idx) == 0 and idx.keys() == []
    assert idx.overlaps(idx.mask({1})).tolist() == []
    assert generate_candidates(idx, idx.mask({1}), 10) == []
    assert Hierarchy.build(idx, [], idx.mask({1}), scores=np.full(4, 0.5)).nodes == []
    assert idx.coverage(ROOT) == frozenset(range(4))
