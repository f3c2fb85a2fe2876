"""Tests for the five Table-1 dataset specs."""
import numpy as np
import pytest

from repro.corpora.datasets import ALL_DATASETS, PAPER_TABLE1, directions
from repro.corpora.generator import generate_pandas
from repro.grammar import tokensregex as tr

NAMES = list(ALL_DATASETS)


@pytest.mark.parametrize("name", NAMES)
def test_default_sizes_match_paper(name):
    spec = ALL_DATASETS[name]()
    paper_n = PAPER_TABLE1[name]["sentences"]
    if name == "profession":
        # paper scale is 1M; default spec is scaled down but scalable.
        assert spec.n == 50_000
        assert spec.with_n(paper_n).n == paper_n
    else:
        assert spec.n == paper_n


@pytest.mark.parametrize("name", NAMES)
def test_positive_fraction_matches_paper(name):
    spec = ALL_DATASETS[name]().with_n(4000)
    pdf = generate_pandas(spec)
    expected = PAPER_TABLE1[name]["pct_positives"] / 100.0
    assert abs(pdf.label.mean() - expected) < 0.01


@pytest.mark.parametrize("name", NAMES)
def test_seed_rule_fires_on_positives_only_mostly(name):
    """The default seed rule must be precise (≥0.8) on its matches."""
    spec = ALL_DATASETS[name]().with_n(4000)
    pdf = generate_pandas(spec)
    key = tr.key_of(spec.seed_rule)
    from repro.text.tokenizer import word_tokens

    hits = [
        int(lbl)
        for txt, lbl in zip(pdf.text, pdf.label)
        if tr.matches(key, word_tokens(txt))
    ]
    assert len(hits) >= 2, "seed rule must cover at least two sentences"
    assert np.mean(hits) >= 0.8


@pytest.mark.parametrize("name", NAMES)
def test_determinism(name):
    spec = ALL_DATASETS[name]().with_n(500)
    assert generate_pandas(spec).equals(generate_pandas(spec))


def test_directions_has_shuttle_family():
    """Fig 8's biased-seed probe requires a 'shuttle' family distant
    from the 'best way to get to' seed."""
    pdf = generate_pandas(directions(n=4000))
    shuttle = pdf[pdf.family == "shuttle"]
    assert len(shuttle) > 0
    assert all("shuttle" in t for t in shuttle.text)
    seed_fam = pdf[pdf.family == "best_way"]
    assert not any("shuttle" in t for t in seed_fam.text)


@pytest.mark.parametrize("name", NAMES)
def test_tail_family_exists(name):
    """Every dataset keeps a long-tail positive family so rule coverage
    cannot trivially saturate (DESIGN.md §2)."""
    spec = ALL_DATASETS[name]()
    assert any(f.name == "tail" for f in spec.families)


@pytest.mark.parametrize("name", NAMES)
def test_family_weights_positive(name):
    for f in ALL_DATASETS[name]().families:
        assert f.weight > 0
        assert f.templates
