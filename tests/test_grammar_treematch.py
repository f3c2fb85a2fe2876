"""Unit tests for the TreeMatch grammar."""
import pytest

from repro.grammar import treematch as tm
from repro.grammar.base import ROOT
from repro.text.depparse import parse
from repro.text.pos import tag
from repro.text.tokenizer import word_tokens


def _parsed(text):
    toks = word_tokens(text)
    tags = tag(toks)
    return toks, tags, parse(toks, tags)


SENT = "his job is teacher at the university"


def test_sketch_contains_terminals():
    toks, tags, par = _parsed(SENT)
    sk = tm.sketch(toks, tags, par)
    assert "tm:t=job" in sk
    assert "tm:p=NOUN" in sk
    assert "tm:p=AUX" in sk


def test_sketch_contains_child_edges():
    toks, tags, par = _parsed(SENT)
    sk = tm.sketch(toks, tags, par)
    # 'is' is the root; 'job' attaches to it.
    assert "tm:t=is/t=job" in sk
    assert "tm:t=is/p=NOUN" in sk


def test_sketch_descendants_superset_of_children():
    toks, tags, par = _parsed(SENT)
    sk = tm.sketch(toks, tags, par)
    for k in [k for k in sk if "/" in k and "//" not in k and "&" not in k]:
        a, b = k.split(":", 1)[1].split("/")
        assert f"tm:{a}//{b}" in sk


def test_sketch_conjunctions_match():
    toks, tags, par = _parsed(SENT)
    sk = tm.sketch(toks, tags, par)
    conj = [k for k in sk if "&" in k]
    assert conj, "expected conjunction keys"
    for k in conj[:25]:
        assert tm.matches(k, toks, tags, par)


@pytest.mark.parametrize(
    "text",
    [SENT, "what is the best way to get to the airport", "smoking caused severe cancer", "go"],
)
def test_every_sketch_key_matches(text):
    toks, tags, par = _parsed(text)
    for k in tm.sketch(toks, tags, par):
        assert tm.matches(k, toks, tags, par), k


def test_matches_negative_cases():
    toks, tags, par = _parsed(SENT)
    assert not tm.matches("tm:t=shuttle", toks, tags, par)
    assert not tm.matches("tm:t=job/t=is", toks, tags, par)  # wrong direction
    assert not tm.matches("tm:t=is/t=job&t=shuttle", toks, tags, par)


def test_paper_example_rule_shape():
    """The professions rule '/is/NOUN∧job' from §4.3 is expressible."""
    toks, tags, par = _parsed(SENT)
    key = "tm:t=is/p=NOUN&t=job"
    assert tm.matches(key, toks, tags, par)


def test_parents_of_child_pattern_is_descendant():
    assert tm.parents_of("tm:t=is/t=job") == ["tm:t=is//t=job"]


def test_parents_of_descendant_pattern_are_terminals():
    assert set(tm.parents_of("tm:t=is//t=job")) == {"tm:t=is", "tm:t=job"}


def test_parents_of_terminal_is_root():
    assert tm.parents_of("tm:t=is") == [ROOT]
    assert tm.parents_of("tm:p=NOUN") == [ROOT]


def test_parents_of_conjunction():
    assert set(tm.parents_of("tm:t=is/p=NOUN&t=job")) == {"tm:t=is/p=NOUN", "tm:t=job"}


def test_parent_coverage_superset():
    """child pattern ⇒ descendant pattern ⇒ terminals (match implication)."""
    for text in [SENT, "the report was reviewed by the journalist"]:
        toks, tags, par = _parsed(text)
        for k in tm.sketch(toks, tags, par):
            for p in tm.parents_of(k):
                if p != ROOT:
                    assert tm.matches(p, toks, tags, par), (k, p)
