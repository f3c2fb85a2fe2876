"""Tests for weak-label production, incl. Spark-vs-index agreement."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.darwin import run_darwin
from repro.core.labeling import apply_rules, dedupe_rules, label_matrix
from repro.core.oracle_sim import GroundTruthOracle
from repro.index.inverted import HeuristicIndex
from repro.oracle import assert_equivalent


def _dedupe_rules_on_sets(index, rules):
    """``dedupe_rules`` on frozenset coverages, kept as the reference."""
    covs = {r: index.coverage(r) for r in rules}
    out = []
    for r in rules:
        if any(covs[r] < covs[o] for o in rules if o != r):
            continue
        if any(covs[r] == covs[o] for o in out):
            continue
        out.append(r)
    return out


def test_label_matrix_shape_and_content(toy_index):
    L = label_matrix(toy_index, ["tr:a", "tr:c"], 10)
    assert L.shape == (10, 2)
    assert set(np.nonzero(L[:, 0])[0]) == set(toy_index.coverage("tr:a"))
    assert set(np.nonzero(L[:, 1])[0]) == set(toy_index.coverage("tr:c"))


def test_label_matrix_empty_rules(toy_index):
    L = label_matrix(toy_index, [], 10)
    assert L.shape == (10, 0)


def test_dedupe_drops_subset(toy_index):
    # cov('tr:a b') ⊂ cov('tr:a'), cov('tr:c d') ⊂ cov('tr:c').
    kept = dedupe_rules(toy_index, ["tr:a", "tr:a b", "tr:c", "tr:c d"])
    assert kept == ["tr:a", "tr:c"]


def test_dedupe_keeps_overlapping_non_subsets(toy_index):
    kept = dedupe_rules(toy_index, ["tr:a", "tr:b"])  # overlap but no containment
    assert kept == ["tr:a", "tr:b"]


def test_dedupe_drops_exact_duplicates():
    cov = {"tr:x": frozenset({1, 2}), "tr:y": frozenset({1, 2})}
    idx = HeuristicIndex(cov, 5)
    assert dedupe_rules(idx, ["tr:x", "tr:y"]) == ["tr:x"]


def test_dedupe_matches_set_reference_on_toy_cases(toy_index):
    cov = {"tr:x": {1, 2}, "tr:y": {1, 2}, "tr:z": {1, 2, 3}, "tr:w": {4}, "tr:v": set()}
    idx = HeuristicIndex(cov, 5)
    cases = [
        ["tr:x", "tr:y"], ["tr:y", "tr:x", "tr:x"], ["tr:x", "tr:z", "tr:y"],
        ["tr:z", "tr:x"], ["tr:w", "tr:v"], ["tr:v"], ["tr:v", "tr:v"], [],
        ["tr:x", "tr:w", "tr:y", "tr:z", "tr:v", "tr:x"],
    ]
    for rules in cases:
        assert dedupe_rules(idx, rules) == _dedupe_rules_on_sets(idx, rules), rules
    for rules in (["tr:a", "tr:a b", "tr:b", "tr:c d", "tr:c", "tr:d"], ["tr:a b", "tr:a", "tr:a"]):
        assert dedupe_rules(toy_index, rules) == _dedupe_rules_on_sets(toy_index, rules)


def test_dedupe_matches_set_reference_on_accepted_rules(prep_directions):
    prep = prep_directions
    accepted = []
    for strategy in ("hybrid", "local"):
        res = run_darwin(prep.index, prep.make_classifier(), GroundTruthOracle(prep.labels),
                         seed_rule=prep.seed_rule_key(), budget=60, strategy=strategy,
                         true_labels=prep.labels)
        accepted.append(res.rules)
    accepted.append(accepted[0] + accepted[1])
    accepted.append(accepted[2][::-1])
    for rules in accepted:
        assert len(rules) > 1
        assert dedupe_rules(prep.index, rules) == _dedupe_rules_on_sets(prep.index, rules)


def test_apply_rules_matches_index(spark, prep_directions):
    """Distributed rule application and the inverted index must agree
    sentence-by-sentence (two independent code paths)."""
    prep = prep_directions
    rules = [prep.seed_rule_key(), "tr:shuttle"]
    out = apply_rules(prep.corpus_df, rules, prep.cfg).orderBy("sid")
    rows = out.collect()
    for j, rule in enumerate(rules):
        got = {r["sid"] for r in rows if r[f"rule_{j}"]}
        assert got == set(prep.index.coverage(rule)), rule


def test_apply_rules_weak_label_is_union(spark, prep_directions):
    prep = prep_directions
    rules = [prep.seed_rule_key(), "tr:shuttle"]
    out = apply_rules(prep.corpus_df, rules, prep.cfg)
    assert_equivalent(
        out.groupBy().agg(F.sum(F.col("weak_label").cast("int")).alias("n_weak")),
        "SELECT sum(CASE WHEN rule_0 OR rule_1 THEN 1 ELSE 0 END) AS n_weak FROM t",
        t=out,
    )


def test_apply_rules_precision_vs_truth(spark, prep_directions):
    """The seed rule's weak labels are ≥0.8 precise vs ground truth —
    checked through the Spark path with a DuckDB aggregation."""
    prep = prep_directions
    out = apply_rules(prep.corpus_df, [prep.seed_rule_key()], prep.cfg)
    assert_equivalent(
        out.filter("rule_0").groupBy().agg(
            F.count("*").alias("n"), F.sum("label").alias("n_pos")
        ),
        "SELECT count(*) AS n, sum(label) AS n_pos FROM t WHERE rule_0",
        t=out,
    )
    row = out.filter("rule_0").agg(F.avg("label")).collect()[0][0]
    assert row >= 0.8


def _tiny_corpus(spark):
    return spark.createDataFrame(
        [(0, 1, ["a", "b"], ["DET", "NOUN"], [1, -1]), (1, 0, [], [], [])],
        "sid long, label int, tokens array<string>, tags array<string>, parents array<int>",
    )


def test_apply_rules_with_no_rules(spark):
    out = apply_rules(_tiny_corpus(spark), [])
    assert out.columns == ["sid", "label", "weak_label"]
    assert [tuple(r) for r in out.orderBy("sid").collect()] == [(0, 1, False), (1, 0, False)]


def test_apply_rules_rejects_an_unknown_prefix_on_the_driver(spark):
    # Raised while the DataFrame is built, before any action runs.
    with pytest.raises(ValueError, match="'xx:a'"):
        apply_rules(_tiny_corpus(spark), ["tr:a", "xx:a"])


def test_apply_rules_runs_no_python(spark):
    """The rules run as compiled Spark SQL: the physical plan holds no
    Python evaluation node, for either grammar."""
    out = apply_rules(_tiny_corpus(spark), ["tr:a b", "tr:a * b", "tm:t=b/t=a",
                                            "tm:t=b//p=DET&t=a", "*"])
    plan = out._jdf.queryExecution().executedPlan().toString()
    for node in ("MapInPandas", "ArrowEvalPython", "BatchEvalPython", "PythonUDF"):
        assert node not in plan, plan
    assert out.columns == ["sid", "label"] + [f"rule_{j}" for j in range(5)] + ["weak_label"]
    assert [tuple(r) for r in out.orderBy("sid").collect()] == [
        (0, 1, True, False, True, True, True, True),
        (1, 0, False, False, False, False, True, True),
    ]
