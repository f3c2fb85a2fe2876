"""Derivation-sketch generation over the corpus (§3.1), distributed.

The per-sentence derivation sketch (every heuristic key the sentence
satisfies, bounded derivation depth) is exploded into a long-format
``(sid, key)`` DataFrame with ``mapInPandas`` — the Spark analogue of
the paper's "index structures for different parts of the corpus can be
created independently and then merged": each partition sketches its
sentences independently and the shuffle/aggregation in
``repro.index.inverted`` performs the merge.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame

from repro.grammar import tokensregex, treematch


@dataclass(frozen=True)
class SketchConfig:
    """Bounds on the derivation depth per grammar (paper: depth ≤ 10)."""

    max_len: int = 5          # TokensRegex n-gram length bound
    max_gap: int = 3          # TokensRegex 'a * b' gap bound; 0 disables gaps
    use_treematch: bool = False


def sentence_sketch(
    tokens: list[str], tags: list[str], parents: list[int], cfg: SketchConfig
) -> set[str]:
    """Union of grammar sketches for one sentence."""
    out = tokensregex.sketch(tokens, max_len=cfg.max_len, max_gap=cfg.max_gap)
    if cfg.use_treematch:
        out |= treematch.sketch(tokens, tags, parents)
    return out


def sketch_df(corpus_df: DataFrame, cfg: SketchConfig = SketchConfig()) -> DataFrame:
    """Explode the corpus into ``(sid, key)`` sketch rows."""

    def _explode(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            sids: list[int] = []
            keys: list[str] = []
            for sid, toks, tgs, par in zip(
                pdf["sid"], pdf["tokens"], pdf["tags"], pdf["parents"]
            ):
                ks = sentence_sketch(list(toks), list(tgs), [int(p) for p in par], cfg)
                sids.extend([sid] * len(ks))
                keys.extend(ks)
            yield pd.DataFrame({"sid": pd.Series(sids, dtype="int64"), "key": keys})

    return corpus_df.select("sid", "tokens", "tags", "parents").mapInPandas(
        _explode, schema="sid long, key string"
    )

