"""The benchmark harness's contract with the program.

``darwinbench/spans.py`` times the loop from outside: it wraps the
index and the classifier in proxies and, for a traced run, replaces
``darwin.generate_candidates``, ``darwin.Hierarchy`` and
``darwin.STRATEGIES`` with timed subclasses and wrappers. This test
loads that module unchanged and checks that a traced ``run_darwin``
returns what the untraced one does and records every loop span, so a
change that breaks the harness fails here first.
"""
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.classifier import EmbeddingClassifier
from repro.core.darwin import run_darwin
from repro.core.oracle_sim import GroundTruthOracle
from repro.core.traversal import STRATEGIES
from tests.conftest import dense_features

SPANS = Path(__file__).resolve().parents[1] / "darwinbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("darwinbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(index, classifier, labels, strategy, seed):
    return run_darwin(index, classifier, GroundTruthOracle(labels), budget=8,
                      strategy=strategy, true_labels=labels, **seed)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("seed", [{"seed_rule": "tr:a b"}, {"seed_positive_ids": {2, 7}}],
                         ids=["rule", "ids"])
def test_traced_run_matches_untraced(spans, toy_index, toy_labels, strategy, seed):
    X = np.random.default_rng(0).standard_normal((10, 4)) + toy_labels[:, None]

    def classifier():
        return EmbeddingClassifier(dense_features(X), seed=3)

    plain = _run(toy_index, classifier(), toy_labels, strategy, seed)
    tracer = spans.Tracer("t")
    with spans.instrument(tracer):
        traced = _run(spans.CountingIndex(toy_index),
                      spans.TracedClassifier(classifier(), tracer),
                      toy_labels, strategy, seed)
    assert traced.rules == plain.rules
    assert traced.history == plain.history
    assert traced.positives == plain.positives
    if strategy == "hybrid":  # the loop after a YES is traced too
        assert any(h["answer"] for h in plain.history)
    names = {s["name"] for s in tracer.spans}
    assert {"candidates", "hierarchy.build", "traversal.select", "classifier.fit"} <= names
    assert len(tracer.values["hierarchy.nodes"]) == len(tracer.by_name("hierarchy.build"))
    assert dataclasses.replace(traced, classifier=None).classifier is None
