"""Shared fixtures: small prepared corpora reused across test modules.

The root conftest provides the session-scoped ``spark`` fixture; here we
add session-scoped *prepared* corpora (corpus + index + features) so the
Spark work of sketching/indexing runs once per dataset per session.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.corpora.datasets import directions, musicians, tweets
from repro.eval.pipeline import collect_corpus, prepare
from repro.index.inverted import HeuristicIndex
from repro.text.embeddings import Features


def dense_features(X) -> Features:
    """A 2-D array as :class:`Features`: the embedding block, an empty BoW
    block (K = 0, hash_dim 0) and one row per sentence."""
    dense = np.asarray(X)
    empty = np.empty((len(dense), 0))
    return Features(empty.astype(np.int32), empty, dense, 0, np.arange(len(dense)))


@pytest.fixture(scope="session")
def prep_directions(spark):
    """directions at n=2500 — the workhorse corpus for search tests."""
    return prepare(spark, directions(n=2500))


@pytest.fixture(scope="session")
def directions_tokens(prep_directions) -> list[list[str]]:
    """prep_directions' token lists, sid-ordered."""
    return collect_corpus(prep_directions.corpus_df)[1]


@pytest.fixture(scope="session")
def prep_musicians(spark):
    return prepare(spark, musicians(n=2500))


@pytest.fixture(scope="session")
def prep_tweets(spark):
    return prepare(spark, tweets(n=1200))


@pytest.fixture()
def toy_index() -> HeuristicIndex:
    """Hand-built index over 10 sentences with known rule structure.

    Keys mimic TokensRegex n-grams so grammar parent/child relations
    hold: 'tr:a b' is a child of 'tr:a' and 'tr:b'.
    """
    cov = {
        "tr:a": frozenset({0, 1, 2, 3, 4}),
        "tr:b": frozenset({2, 3, 4, 5, 6}),
        "tr:a b": frozenset({2, 3, 4}),
        "tr:c": frozenset({7, 8}),
        "tr:c d": frozenset({7}),
        "tr:d": frozenset({7, 9}),
    }
    return HeuristicIndex(cov, n_sentences=10)


@pytest.fixture()
def toy_labels() -> np.ndarray:
    """Ground truth for the toy index: positives are {2,3,4,7}."""
    y = np.zeros(10, dtype=np.int64)
    y[[2, 3, 4, 7]] = 1
    return y
