"""Candidate-heuristic generation — Algorithm 2 (§3.2).

Greedy best-first descent through the index: start at the root ``*``,
repeatedly expose the children of the most recently selected heuristic
and pick the candidate with the highest coverage over the positives
discovered so far. Ties are broken by total corpus coverage (the index
count) and then lexically, keeping the run deterministic.

The diversity constraint the paper mentions ("avoid having to evaluate
many similar candidate heuristics") is realized by capping how many
selected candidates may share an identical positive-overlap signature.

Every key's overlap with P comes from one pass over the index's
postings. A child's coverage is a subset of its parent's, so once a
popped key overlaps P in nothing, so does every key popped after it:
they all share the empty signature, and the walk stops as soon as that
signature's cap is full.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.grammar.base import ROOT
from repro.index.inverted import HeuristicIndex


def generate_candidates(
    index: HeuristicIndex,
    mask: np.ndarray,
    k: int,
    *,
    max_duplicate_signature: int = 3,
) -> list[str]:
    """Return up to ``k`` candidate heuristic keys (Algorithm 2) for P
    given as a bool mask over sentences."""
    overlaps = index.overlaps(mask).tolist()
    counts = index.counts.tolist()
    rows = index.rows
    results: list[str] = []
    recent = ROOT
    seen: set[str] = {ROOT}
    # Min-heap on (-overlap, -count, key): CoverageSort is overlap with
    # P desc, then corpus coverage desc, then key asc (determinism).
    # P is fixed for the duration of the call, so each candidate's
    # priority is computed once, on insertion.
    heap: list[tuple[int, int, str]] = []
    # Signature: the key's positive ids (sorted int32) as bytes.
    sig_count: dict[bytes, int] = {}

    while len(results) < k:
        for c in index.children(recent):
            if c not in seen:
                seen.add(c)
                r = rows[c]
                heapq.heappush(heap, (-overlaps[r], -counts[r], c))
        if not heap:
            break
        neg_overlap, _, best = heapq.heappop(heap)
        recent = best
        if neg_overlap:
            ids = index.ids(best)
            sig = ids[mask[ids]].tobytes()
        else:
            sig = b""
        if sig_count.get(sig, 0) >= max_duplicate_signature:
            if not neg_overlap:
                break  # no later pop overlaps P either (see module docstring)
            continue  # diversity cap: skip near-duplicate candidates
        sig_count[sig] = sig_count.get(sig, 0) + 1
        results.append(best)
    return results
