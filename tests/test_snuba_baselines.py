"""Tests for the Snuba baseline."""
import numpy as np
import pytest

from repro.baselines.snuba import run_snuba, snuba_positives
from repro.eval.metrics import coverage_of_ids


def test_snuba_mines_precise_rule(toy_index, toy_labels):
    # Labeled subset exposes 'tr:a b' (pure positives {2,3,4}).
    rules = run_snuba(toy_index, [0, 2, 3, 4, 5], toy_labels)
    assert "tr:a b" in rules


def test_snuba_requires_positive_evidence(toy_index, toy_labels):
    assert run_snuba(toy_index, [0, 1, 5], toy_labels) == []


def test_snuba_skips_imprecise(toy_index, toy_labels):
    # 'tr:b' on labeled {2,5,6} has precision 1/3 < floor → rejected.
    rules = run_snuba(toy_index, [2, 5, 6], toy_labels, min_precision=0.7)
    assert "tr:b" not in rules


def test_snuba_positives_union(toy_index):
    ids = snuba_positives(toy_index, ["tr:a", "tr:c"])
    assert ids == set(toy_index.coverage("tr:a")) | set(toy_index.coverage("tr:c"))


def test_snuba_blind_to_unseen_family(prep_directions, directions_tokens):
    """Fig 8's mechanism: exclude 'shuttle' sentences from the labeled
    sample → no mined rule can cover the shuttle family."""
    prep = prep_directions
    rng = np.random.default_rng(5)
    pool = [i for i in range(prep.n) if "shuttle" not in directions_tokens[i]]
    sample = rng.choice(np.array(pool), size=600, replace=False)
    rules = run_snuba(prep.index, list(sample), prep.labels)
    found = snuba_positives(prep.index, rules)
    shuttle_ids = {
        i for i in range(prep.n)
        if "shuttle" in directions_tokens[i] and prep.labels[i] == 1
    }
    assert shuttle_ids, "corpus should contain shuttle positives"
    assert not (found & shuttle_ids)


def test_snuba_recall_grows_with_labels(prep_directions):
    prep = prep_directions
    rng = np.random.default_rng(6)
    small = rng.choice(prep.n, size=50, replace=False)
    large = rng.choice(prep.n, size=1000, replace=False)
    r_small = coverage_of_ids(
        snuba_positives(prep.index, run_snuba(prep.index, list(small), prep.labels)),
        prep.labels,
    )
    r_large = coverage_of_ids(
        snuba_positives(prep.index, run_snuba(prep.index, list(large), prep.labels)),
        prep.labels,
    )
    assert r_large >= r_small
