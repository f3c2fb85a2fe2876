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
    mask = idx.mask({1})
    overlaps = idx.overlaps(mask)
    assert overlaps.tolist() == []
    assert generate_candidates(idx, mask, 10, overlaps=overlaps) == []
    assert Hierarchy.build(idx, [], mask, scores=np.full(4, 0.5), overlaps=overlaps).nodes == []
    assert idx.coverage(ROOT) == frozenset(range(4))


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_ids_outside_the_corpus_rejected(bad):
    # At n = 3, -1 used to act as sentence 2 and 3 to fail inside numpy.
    with pytest.raises(ValueError, match=rf"outside \[0, 3\): \[{bad}\]"):
        HeuristicIndex({"tr:a": [bad, 0]}, n_sentences=3)
    idx = HeuristicIndex({"tr:a": [0, 1]}, n_sentences=3)
    with pytest.raises(ValueError, match=rf"outside \[0, 3\): \[{bad}\]"):
        idx.mask([2, bad])


def test_forward_csr_is_the_transposed_postings(toy_index):
    idx = toy_index
    for sid in range(idx.n_sentences):
        rows = idx.sentence_rows[idx.sentence_offsets[sid]:idx.sentence_offsets[sid + 1]]
        want = [r for r, key in enumerate(idx.keys()) if sid in idx.coverage(key)]
        assert rows.tolist() == want, sid
    assert idx.sentence_offsets[-1] == len(idx.postings) == len(idx.sentence_rows)


def test_overlaps_of_sums_over_sentences(toy_index):
    rng = np.random.default_rng(1)
    for _ in range(20):
        sids = rng.permutation(10)[: rng.integers(0, 11)]
        want = [len(toy_index.coverage(k) & set(sids.tolist())) for k in toy_index.keys()]
        assert toy_index.overlaps_of(sids).tolist() == want
        rows, lens = toy_index.forward_rows(sids)
        per_sid = [[r for r, k in enumerate(toy_index.keys()) if s in toy_index.coverage(k)]
                   for s in sids.tolist()]
        assert rows.tolist() == sum(per_sid, []) and lens.tolist() == list(map(len, per_sid))
    assert toy_index.overlaps_of(np.empty(0, dtype=np.int64)).tolist() == [0] * len(toy_index)
