"""Unit tests for the TokensRegex grammar."""
import pytest

from repro.grammar import tokensregex as tr
from repro.grammar.base import ROOT, parents_of

TOKS = ["what", "is", "the", "best", "way", "to", "get", "to", "sfo"]


def test_key_roundtrip():
    assert tr.pattern_of(tr.key_of(("best", "way"))) == ("best", "way")


def test_sketch_contains_all_unigrams():
    sk = tr.sketch(TOKS, max_len=3, max_gap=0)
    for t in TOKS:
        assert tr.key_of((t,)) in sk


def test_sketch_contains_contiguous_ngrams():
    sk = tr.sketch(TOKS, max_len=4, max_gap=0)
    assert tr.key_of(("best", "way", "to")) in sk
    assert tr.key_of(("best", "way", "to", "get")) in sk
    assert tr.key_of(("way", "best")) not in sk  # order matters


def test_sketch_length_bound():
    sk = tr.sketch(TOKS, max_len=2, max_gap=0)
    assert all(len(tr.pattern_of(k)) <= 2 for k in sk)


def test_sketch_gap_patterns():
    sk = tr.sketch(TOKS, max_len=1, max_gap=3)
    assert tr.key_of(("best", "*", "to")) in sk      # gap of 1
    assert tr.key_of(("what", "*", "the")) in sk      # gap of 1
    assert tr.key_of(("best", "*", "way")) not in sk  # adjacent → not a gap


def test_sketch_gap_bound():
    sk = tr.sketch(TOKS, max_len=1, max_gap=2)
    # 'what ... way' needs a gap of 3 (is, the, best) — beyond the bound.
    assert tr.key_of(("what", "*", "way")) not in sk


@pytest.mark.parametrize("max_len,max_gap", [(2, 0), (3, 2), (5, 3)])
def test_every_sketch_key_matches(max_len, max_gap):
    sk = tr.sketch(TOKS, max_len=max_len, max_gap=max_gap)
    assert all(tr.matches(k, TOKS, max_gap=max_gap) for k in sk)


@pytest.mark.parametrize(
    "pattern,expected",
    [
        (("best", "way"), True),
        (("way", "best"), False),
        (("sfo",), True),
        (("hotel",), False),
        (("best", "*", "to"), True),
        (("what", "*", "sfo"), False),  # gap too large for default max_gap=3
        (("to", "get", "to"), True),
    ],
)
def test_matches(pattern, expected):
    assert tr.matches(tr.key_of(pattern), TOKS) is expected


def test_parents_of_ngram_drops_endpoints():
    ps = tr.parents_of(tr.key_of(("best", "way", "to")))
    assert set(ps) == {tr.key_of(("way", "to")), tr.key_of(("best", "way"))}


def test_parents_of_unigram_is_root():
    assert tr.parents_of(tr.key_of(("best",))) == [ROOT]


def test_parents_of_gap_pattern():
    ps = tr.parents_of(tr.key_of(("best", "*", "to")))
    assert set(ps) == {tr.key_of(("best",)), tr.key_of(("to",))}


def test_parents_are_supersets():
    """Coverage of a parent always contains the coverage of the child."""
    sentences = [TOKS, ["best", "to"], ["the", "best", "way"], ["go", "away"]]
    child = tr.key_of(("best", "way", "to"))
    for p in tr.parents_of(child):
        for s in sentences:
            if tr.matches(child, s):
                assert tr.matches(p, s)


def test_parents_dispatch_via_base():
    assert parents_of("tr:best way") == tr.parents_of("tr:best way")


def test_duplicate_token_ngram_parents_deduped():
    # 'to get to' → dropping first/last both give distinct keys here,
    # but 'to to' style patterns must not yield duplicate parents.
    ps = tr.parents_of(tr.key_of(("to", "to")))
    assert ps == [tr.key_of(("to",))]
