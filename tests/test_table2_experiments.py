"""Reproduction checks for Table 2 and the figure-level harnesses
(scaled down for test speed; jobs/ regenerate at paper scale)."""
import numpy as np
import pytest

from repro.eval.experiments import (
    PAPER_TABLE2,
    coverage_curves,
    pool_without,
    snuba_comparison,
    table2,
)


@pytest.fixture(scope="module")
def t2(spark):
    return table2(
        spark,
        budget=60,
        n_override={"musicians": 2500, "tweets": 1200},
        datasets=("musicians", "tweets"),
    )


def test_table2_columns(t2):
    assert {"dataset", "darwin_f1", "darwin_snorkel_f1", "paper_darwin",
            "paper_darwin_snorkel"} <= set(t2.columns)


def test_table2_fscores_in_range(t2):
    assert ((t2.darwin_f1 >= 0) & (t2.darwin_f1 <= 1)).all()
    assert ((t2.darwin_snorkel_f1 >= 0) & (t2.darwin_snorkel_f1 <= 1)).all()


def test_table2_darwin_f1_is_high(t2):
    """Paper's headline: Darwin-trained classifiers reach F1 ≥ ~0.8."""
    assert (t2.darwin_f1 >= 0.7).all()


def test_table2_paper_reference_embedded(t2):
    assert set(PAPER_TABLE2.dataset) == {"musicians", "cause-effect", "directions", "tweets"}
    for _, r in t2.iterrows():
        assert r.paper_darwin > 0.7


def test_coverage_curves_shapes(prep_directions):
    df = coverage_curves(prep_directions, budget=60, checkpoints=(25, 50))
    assert set(df.strategy) == {"hybrid", "local", "universal", "highp", "highc"}
    hs = df[df.strategy == "hybrid"].iloc[0]
    hc = df[df.strategy == "highc"].iloc[0]
    assert hs.final_coverage >= hc.final_coverage  # §4.3 ordering
    assert (df.final_coverage <= 1).all()


def test_snuba_comparison_darwin_wins_when_biased(prep_directions):
    """Fig 8's shape: with a biased seed, Darwin(HS) finds families
    Snuba cannot; the gap shows at moderate seed sizes."""
    df = snuba_comparison(
        prep_directions,
        seed_sizes=(200, 600),
        budget=60,
        biased_exclude_token="shuttle",
    )
    # On at least one seed size Darwin must beat Snuba clearly.
    assert (df.darwin_recall - df.snuba_recall).max() > 0.1


def test_fig8_pool_is_the_token_scan_pool(prep_directions, directions_tokens):
    scan = [i for i, ts in enumerate(directions_tokens) if "shuttle" not in ts]
    assert len(scan) < prep_directions.n
    np.testing.assert_array_equal(pool_without(prep_directions.index, "shuttle"), scan)
    with pytest.raises(ValueError, match="'no-such-token'"):
        pool_without(prep_directions.index, "no-such-token")


def test_snuba_comparison_columns(prep_directions):
    df = snuba_comparison(prep_directions, seed_sizes=(100,), budget=30)
    assert {"seed_size", "snuba_recall", "darwin_recall"} <= set(df.columns)
    assert len(df) == 1
