"""Oracle simulation (Def 4, §4.1).

The paper synthesizes oracle answers from ground truth: "we respond YES
to heuristic h if at least 80% of its coverage set consist of positive
instances". :class:`GroundTruthOracle` is exactly that.
:class:`NoisyOracle` models §4.5's human annotators, who judge from a
small sample of matching sentences and therefore sometimes err when the
sample precision crosses the bar by chance.
"""
from __future__ import annotations

from collections.abc import Collection

import numpy as np


def _as_ids(ids: Collection[int] | np.ndarray) -> np.ndarray:
    """Sentence ids as an int array; an int array passes through."""
    if isinstance(ids, (set, frozenset)):
        ids = list(ids)
    return np.asarray(ids, dtype=np.int64)


class GroundTruthOracle:
    """YES iff precision over the full coverage set ≥ ``threshold``."""

    def __init__(self, labels: np.ndarray, *, threshold: float = 0.8):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.threshold = threshold

    def precision(self, ids: Collection[int] | np.ndarray) -> float:
        idx = _as_ids(ids)
        if len(idx) == 0:
            return 0.0
        return float(self.labels[idx].mean())

    def __call__(self, key: str, ids: Collection[int] | np.ndarray) -> bool:
        return self.precision(ids) >= self.threshold


class NoisyOracle:
    """Annotator model: judges ``sample_size`` random matching sentences.

    Answers YES iff the *sample* precision ≥ threshold — reproducing
    the paper's observed failure mode ("the 5 matching sentences ...
    can have 3 or 4 positive instances by chance which confuses the
    annotators"; "presenting more samples lowers the error rate").
    """

    def __init__(self, labels: np.ndarray, *, threshold: float = 0.8,
                 sample_size: int = 5, seed: int = 0):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.threshold = threshold
        self.sample_size = sample_size
        self._rng = np.random.default_rng(seed)

    def __call__(self, key: str, ids: Collection[int] | np.ndarray) -> bool:
        idx = _as_ids(ids)
        if len(idx) == 0:
            return False
        k = min(self.sample_size, len(idx))
        sample = self._rng.choice(idx, size=k, replace=False)
        return float(self.labels[sample].mean()) >= self.threshold
