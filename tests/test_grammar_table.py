"""The prefix → grammar table in ``repro.grammar.base``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.grammar import tokensregex as tr
from repro.grammar import treematch as tm
from repro.grammar.base import parents_of
from tests.matching import matches_sentence


def test_index_builds_in_fresh_interpreter():
    # Dispatch must not depend on which grammar modules happen to have
    # been imported: build an index over both prefixes after importing
    # only the index module.
    code = (
        "from repro.index.inverted import HeuristicIndex\n"
        "idx = HeuristicIndex({'tr:a b': frozenset({0}), 'tm:t=a/t=b': frozenset({0})}, 1)\n"
        "print(idx.children('tr:a') + idx.children('tm:t=a//t=b'))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['tr:a b', 'tm:t=a/t=b']"


def test_unknown_prefix_raises():
    with pytest.raises(ValueError, match="unknown grammar prefix"):
        parents_of("xx:a")
    with pytest.raises(ValueError, match="unknown grammar prefix"):
        matches_sentence("xx:a", ["a"], ["NOUN"], [-1])


def test_matches_sentence_routes_by_prefix():
    tokens, tags, parents = ["is", "a", "job"], ["VERB", "DET", "NOUN"], [-1, 2, 0]
    for key in ("tr:is a", "tr:is * job", "tr:job is"):
        assert matches_sentence(key, tokens, tags, parents) == tr.matches(key, tokens)
    for key in ("tm:t=is/p=NOUN", "tm:t=is//t=a", "tm:t=a/t=is"):
        assert matches_sentence(key, tokens, tags, parents) == tm.matches(
            key, tokens, tags, parents
        )
