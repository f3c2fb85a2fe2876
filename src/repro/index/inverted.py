"""Inverted heuristic index (§3.1): counts + inverted lists, then a
driver-side structure with O(1) parent/child navigation.

Two layers:

1. :func:`index_df` — one Spark aggregation of the sketch rows into
   ``(key, count, ids)`` with each ``ids`` list sorted, keeping the keys
   that cover at least ``min_count`` sentences. This is the distributed
   merge of the per-sentence derivation sketches (the paper's index
   build, linear in corpus size and "highly parallelizable").
2. :class:`HeuristicIndex` — the collected (thresholded) index on the
   driver, stored as CSR postings: a ``key → row`` map, an ``int64``
   ``offsets`` array and one ``int32`` ``postings`` array holding each
   row's sorted sentence ids, plus a reverse-adjacency children map
   derived from each grammar's ``parents_of``. The same postings are
   also held sentence-major, as a forward CSR (``sentence_offsets``,
   ``sentence_rows``: the rows of the keys each sentence satisfies).
   The positive set P is a bool mask over sentences;
   :meth:`HeuristicIndex.overlaps_of` gives |C_k ∩ S| for every key by
   one ``bincount`` over the forward rows of the sentences in S, so the
   search loop keeps |C_k ∩ P| up to date by adding the counts of only
   the sentences a YES newly covers. ``walk_order`` fixes
   Algorithm 2's tie order once per index (see
   :mod:`repro.core.candidates`). The interactive search loop
   (Algorithms 2–5) navigates this structure; Spark is the machinery
   that produced it.

``min_count`` bounds the collect: it drops the rare heuristics (never
precise-and-useful at scale), which are most of the distinct keys.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping

import numpy as np
import pyarrow.compute as pc
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.grammar.base import ROOT, parents_of


def index_df(sketch: DataFrame, *, min_count: int = 1) -> DataFrame:
    """Aggregate ``(sid, key)`` sketch rows into the inverted index, one
    ``(key, count, ids)`` row per key covering ≥ ``min_count`` sentences.

    One aggregation, so the sketch is derived once: the id lists of the
    keys under ``min_count`` are built on the executors and dropped
    there, and only the surviving rows reach the driver.
    """
    return (
        sketch.groupBy("key")
        .agg(
            F.count("sid").alias("count"),
            F.array_sort(F.collect_list("sid")).alias("ids"),
        )
        .filter(F.col("count") >= min_count)
    )


class HeuristicIndex:
    """Driver-side index over (a thresholded slice of) all heuristics.

    ``HeuristicIndex({key: sentence ids}, n)`` builds it from a mapping;
    :meth:`from_sketch` builds it from the Spark sketch. Sentence ids
    outside ``[0, n)`` raise a ``ValueError``. Algorithm 2 relies on
    every child's ids being a subset of its parent's, which holds for
    every sketched index.
    """

    def __init__(self, coverage: Mapping[str, Iterable[int]], n_sentences: int):
        lists = [np.unique(np.fromiter(ids, dtype=np.int64)) for ids in coverage.values()]
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([len(ids) for ids in lists], out=offsets[1:])
        postings = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
        self._init(list(coverage), offsets, postings, n_sentences)

    def _init(
        self, keys: list[str], offsets: np.ndarray, postings: np.ndarray, n_sentences: int
    ) -> None:
        _check_ids(postings, n_sentences)
        self.n_sentences = n_sentences
        self._keys = keys
        self.rows: dict[str, int] = {key: r for r, key in enumerate(keys)}
        self.offsets = offsets
        self.postings = postings.astype(np.int32)
        self.postings.flags.writeable = False  # ids() hands out views
        self.counts = np.diff(offsets)
        # Forward CSR, sid → rows of the keys it satisfies (rows ascending).
        self.sentence_rows = _rows_by_sentence(self.postings, self.counts)
        self.sentence_offsets = np.zeros(n_sentences + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.postings, minlength=n_sentences), out=self.sentence_offsets[1:])
        self._children: dict[str, list[str]] = {}
        for key in keys:
            for p in parents_of(key):
                self._children.setdefault(p, []).append(key)
        for kids in self._children.values():
            kids.sort()  # determinism
        self.walk_order = self._walk()

    def _walk(self) -> np.ndarray:
        """Rows in the order Algorithm 2's walk pops them for P = ∅ with
        no ``k`` and no cap: best-first from the root on (-count, key),
        each pop exposing the popped key's children. Keys the walk never
        reaches are left out."""
        rows, counts = self.rows, self.counts.tolist()
        order: list[int] = []
        seen = {ROOT}
        heap: list[tuple[int, str]] = []
        recent = ROOT
        while True:
            for c in self._children.get(recent, ()):
                if c not in seen:
                    seen.add(c)
                    heapq.heappush(heap, (-counts[rows[c]], c))
            if not heap:
                return np.array(order, dtype=np.int64)
            _, recent = heapq.heappop(heap)
            order.append(rows[recent])

    # -- construction -------------------------------------------------
    @classmethod
    def from_sketch(
        cls,
        sketch: DataFrame,
        n_sentences: int,
        *,
        min_count: int = 2,
    ) -> "HeuristicIndex":
        """Collect :func:`index_df` through Arrow, rows in key order.

        Sorting on the driver makes the rows, and the ids within each
        row, independent of how Spark partitioned the aggregation.
        """
        table = index_df(sketch, min_count=min_count).select("key", "ids").toArrow()
        keys = table.column("key").combine_chunks()
        order = pc.sort_indices(keys)
        lists = table.column("ids").combine_chunks().take(order)
        offsets = np.asarray(lists.offsets, dtype=np.int64)
        index = cls.__new__(cls)
        index._init(
            keys.take(order).to_pylist(),
            offsets - offsets[0],
            lists.flatten().to_numpy(),
            n_sentences,
        )
        return index

    # -- lookups -------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key == ROOT or key in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self) -> list[str]:
        return list(self._keys)

    def key(self, row: int) -> str:
        return self._keys[row]

    def ids(self, key: str) -> np.ndarray:
        """Sorted ``int32`` sentence ids matching ``key`` (a read-only view)."""
        if key == ROOT:
            return np.arange(self.n_sentences, dtype=np.int32)
        r = self.rows.get(key)
        if r is None:
            return self.postings[:0]
        return self.postings[self.offsets[r]:self.offsets[r + 1]]

    def coverage(self, key: str) -> frozenset[int]:
        """Sentence ids matching ``key`` as a set (root covers everything)."""
        return frozenset(self.ids(key).tolist())

    def count(self, key: str) -> int:
        if key == ROOT:
            return self.n_sentences
        r = self.rows.get(key)
        return 0 if r is None else int(self.counts[r])

    def mask(self, ids: Iterable[int]) -> np.ndarray:
        """The sentence ids ``ids`` as a bool mask over sentences."""
        ids = np.fromiter(ids, dtype=np.int64)
        _check_ids(ids, self.n_sentences)
        mask = np.zeros(self.n_sentences, dtype=bool)
        mask[ids] = True
        return mask

    def overlaps(self, mask: np.ndarray) -> np.ndarray:
        """|C_k ∩ P| for every row k, for P given as a bool mask."""
        return self.overlaps_of(np.flatnonzero(mask))

    def overlaps_of(self, sids: np.ndarray) -> np.ndarray:
        """|C_k ∩ S| for every row k, for S given as distinct sentence
        ids: one ``bincount`` over the forward rows of those sentences."""
        rows, _ = self.forward_rows(sids)
        return np.bincount(rows, minlength=len(self.counts))

    def forward_rows(self, sids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The forward rows of the sentences ``sids``, each sentence's
        rows ascending, concatenated in the order of ``sids``; and how
        many rows each sentence has."""
        sids = np.asarray(sids)
        starts = self.sentence_offsets[sids]
        lens = self.sentence_offsets[sids + 1] - starts
        # Positions of every forward row of S: each sentence's slice, concatenated.
        pos = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
        return self.sentence_rows[pos], lens

    def children(self, key: str) -> list[str]:
        """Keys one derivation step stricter that exist in the corpus (O(1))."""
        return self._children.get(key, [])

    def parents(self, key: str) -> list[str]:
        """Keys one derivation step more general, restricted to the index."""
        return [p for p in parents_of(key) if p in self]


def _rows_by_sentence(postings: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each posting's row, ordered by (sentence id, row): the distinct
    pairs are sorted in place as ``sid · K + row``."""
    k = max(len(counts), 1)
    pairs = postings.astype(np.int64)
    pairs *= k
    pairs += np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    pairs.sort()
    pairs %= k
    return pairs.astype(np.int32)


def _check_ids(ids: np.ndarray, n_sentences: int) -> None:
    """Raise a ``ValueError`` naming the sentence ids outside ``[0, n)``."""
    if not len(ids) or (ids.min() >= 0 and ids.max() < n_sentences):
        return
    bad = ids[(ids < 0) | (ids >= n_sentences)]
    if len(bad):
        raise ValueError(
            f"sentence ids outside [0, {n_sentences}): {np.unique(bad)[:10].tolist()}"
        )
