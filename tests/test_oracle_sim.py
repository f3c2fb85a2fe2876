"""Tests for the oracle simulations (Def 4 / §4.1 / §4.5)."""
import numpy as np
import pytest

from repro.core.oracle_sim import GroundTruthOracle, NoisyOracle

LABELS = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 1])


def test_yes_at_threshold():
    o = GroundTruthOracle(LABELS, threshold=0.8)
    assert o("r", [0, 1, 2, 3, 8]) is True       # precision 1.0
    assert o("r", [0, 1, 2, 3, 4]) is True       # precision 0.8 — boundary
    assert o("r", [0, 1, 2, 4, 5]) is False      # precision 0.6


def test_empty_coverage_is_no():
    assert GroundTruthOracle(LABELS)("r", []) is False


def test_precision_helper():
    o = GroundTruthOracle(LABELS)
    assert o.precision([0, 4]) == pytest.approx(0.5)


def test_custom_threshold():
    o = GroundTruthOracle(LABELS, threshold=0.5)
    assert o("r", [0, 1, 4, 5]) is True  # 0.5 ≥ 0.5


def test_noisy_oracle_exact_on_pure_sets():
    o = NoisyOracle(LABELS, sample_size=3, seed=0)
    assert o("r", [0, 1, 2, 3]) is True
    assert o("r", [4, 5, 6, 7]) is False


def test_noisy_oracle_errs_on_borderline_sets():
    """With 60 % true precision, 5-sample judgments sometimes cross the
    0.8 bar by chance — the annotator failure mode of §4.5."""
    labels = np.array([1] * 60 + [0] * 40)
    ids = list(range(100))
    truth = GroundTruthOracle(labels)("r", ids)
    noisy = [NoisyOracle(labels, sample_size=5, seed=s)("r", ids) for s in range(60)]
    assert truth is False
    assert any(noisy), "expected at least one false YES across seeds"
    assert sum(noisy) < len(noisy) / 2


def test_noisy_oracle_more_samples_fewer_errors():
    labels = np.array([1] * 60 + [0] * 40)
    ids = list(range(100))
    err5 = sum(NoisyOracle(labels, sample_size=5, seed=s)("r", ids) for s in range(80))
    err25 = sum(NoisyOracle(labels, sample_size=25, seed=s)("r", ids) for s in range(80))
    assert err25 <= err5  # "presenting more samples lowers the error rate"


def test_noisy_oracle_empty():
    assert NoisyOracle(LABELS)("r", []) is False


@pytest.mark.parametrize(
    "ids",
    [{0, 1, 2, 3, 4}, frozenset({0, 1, 2, 3, 4}), [0, 1, 2, 3, 4],
     np.arange(5, dtype=np.int32), np.arange(5, dtype=np.int64)],
)
def test_oracles_take_sets_and_int_arrays(ids):
    assert GroundTruthOracle(LABELS).precision(ids) == pytest.approx(0.8)
    assert GroundTruthOracle(LABELS)("r", ids) is True
    assert NoisyOracle(LABELS, sample_size=5, seed=0)("r", ids) is True


@pytest.mark.parametrize("ids", [set(), np.empty(0, dtype=np.int32)])
def test_oracles_empty_sets_and_arrays(ids):
    assert GroundTruthOracle(LABELS)("r", ids) is False
    assert NoisyOracle(LABELS)("r", ids) is False
