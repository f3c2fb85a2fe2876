"""Seeded template-corpus engine (real-corpora substitute, DESIGN.md §2).

A corpus spec plants the structure Darwin exploits in real data:

- positives drawn from *pattern families* of very unequal weight, each
  family anchored on a phrase derivable in the TokensRegex/TreeMatch
  grammars (so precise rules exist to discover);
- negatives that share surface phrases with positives (distractors such
  as "best way to order" vs "best way to get to"), so naive high-
  coverage rules fail the oracle's 0.8-precision bar;
- a long-tail filler vocabulary so rule coverage statistics resemble a
  real corpus rather than a toy alphabet.

Everything is deterministic in ``seed``. Output is a Spark DataFrame
``(sid, text, label, family)`` plus annotation columns (tokens, POS
tags, dependency parents) added distributively via ``mapInPandas``.
"""
from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.text.depparse import parse
from repro.text.pos import tag
from repro.text.tokenizer import word_tokens

_SLOT_RE = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class Family:
    """One positive pattern family: templates sharing a rule-able anchor."""

    name: str
    templates: tuple[str, ...]
    weight: float


@dataclass(frozen=True)
class CorpusSpec:
    """Full recipe for one synthetic dataset."""

    name: str
    n: int
    pos_frac: float
    families: tuple[Family, ...]
    negative_templates: tuple[str, ...]
    slots: dict[str, tuple[str, ...]] = field(default_factory=dict)
    seed: int = 0
    seed_rule: tuple[str, ...] = ()  # expert input: Darwin's default seed phrase

    def with_n(self, n: int) -> "CorpusSpec":
        """Same recipe at a different corpus size (tests vs benchmarks)."""
        return replace(self, n=n)


def _fill(template: str, slots: dict[str, tuple[str, ...]], rng: np.random.Generator) -> str:
    """Substitute each ``{slot}`` occurrence with an independent draw."""
    return _SLOT_RE.sub(lambda m: rng.choice(slots[m.group(1)]), template)


def generate_pandas(spec: CorpusSpec) -> pd.DataFrame:
    """Materialize the corpus on the driver as ``(sid, text, label, family)``."""
    rng = np.random.default_rng(spec.seed)
    n_pos = max(2, int(round(spec.n * spec.pos_frac)))
    n_neg = spec.n - n_pos

    fam_w = np.array([f.weight for f in spec.families], dtype=float)
    fam_w /= fam_w.sum()
    fam_idx = rng.choice(len(spec.families), size=n_pos, p=fam_w)

    texts, labels, fams = [], [], []
    for i in fam_idx:
        f = spec.families[i]
        texts.append(_fill(f.templates[rng.integers(len(f.templates))], spec.slots, rng))
        labels.append(1)
        fams.append(f.name)
    for _ in range(n_neg):
        t = spec.negative_templates[rng.integers(len(spec.negative_templates))]
        texts.append(_fill(t, spec.slots, rng))
        labels.append(0)
        fams.append("_neg")

    pdf = pd.DataFrame({"text": texts, "label": labels, "family": fams})
    # Shuffle so sentence id carries no label signal, then assign sids.
    pdf = pdf.sample(frac=1.0, random_state=spec.seed).reset_index(drop=True)
    pdf.insert(0, "sid", np.arange(len(pdf), dtype=np.int64))
    return pdf


def annotate(corpus_df: DataFrame) -> DataFrame:
    """Add tokens / POS tags / dependency parents, distributed.

    Runs the deterministic NLP substrate once per sentence inside
    ``mapInPandas`` so 1M-sentence corpora never funnel through the
    driver.
    """
    schema = (
        "sid long, text string, label int, family string, "
        "tokens array<string>, tags array<string>, parents array<int>"
    )

    def _annot(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            toks = [word_tokens(t) for t in pdf["text"]]
            tgs = [tag(ts) for ts in toks]
            pdf = pdf[["sid", "text", "label", "family"]].copy()
            pdf["tokens"] = toks
            pdf["tags"] = tgs
            pdf["parents"] = [parse(ts, tg) for ts, tg in zip(toks, tgs)]
            yield pdf

    return corpus_df.mapInPandas(_annot, schema=schema)


def build_corpus(spark: SparkSession, spec: CorpusSpec) -> DataFrame:
    """Generate + annotate a corpus for ``spec``."""
    return annotate(spark.createDataFrame(generate_pandas(spec)))
