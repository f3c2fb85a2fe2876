"""Candidate-heuristic generation — Algorithm 2 (§3.2).

Greedy best-first descent through the index: start at the root ``*``,
repeatedly expose the children of the most recently selected heuristic
and pick the candidate with the highest coverage over the positives
discovered so far. Ties are broken by total corpus coverage (the index
count) and then lexically, keeping the run deterministic.

The diversity constraint the paper mentions ("avoid having to evaluate
many similar candidate heuristics") is realized by capping how many
selected candidates may share an identical positive-overlap signature.

The walk is computed as one sort. A key's priority under P is
(-|C ∩ P|, -|C|), and a child's coverage is a subset of its parent's:

- a child with fewer sentences than its parent covers a strict subset,
  so it ranks strictly below the parent for every P;
- a child with as many sentences has the parent's coverage, so the two
  tie for every P.

So the walk pops every key it can reach, in priority order. For ties,
call keys joined by same-coverage edges a group. For every P a group's
keys enter the heap through the same keys (those with the root or a
parent of larger coverage as a parent), and a pop exposes the same same-coverage children;
among tied keys the walk pops the smallest key on any group's frontier,
and a group's frontier changes only when one of its own keys pops. Two
groups therefore interleave the same way whichever other groups share
the tie. Under P = ∅ a tie holds every key of one count; under any P it
holds the keys of one count and one overlap, a union of whole groups.
The pop order for any P is thus the reachable keys sorted by
(-overlap, -count, rank), where a key's rank is its position in
:attr:`~repro.index.inverted.HeuristicIndex.walk_order`, the walk for
P = ∅ with no ``k`` and no cap.

The caller keeps |C_k ∩ P| for every key up to date (one ``bincount``
over the sentences a YES adds). Only keys overlapping P are sorted and
have their signatures computed, all at once from the forward rows of
P's sentences, so the work is Σ|C_k ∩ P| rather than Σ|C_k|; the
zero-overlap keys all share the empty signature, so at most the cap of
them is taken, in walk order.
"""
from __future__ import annotations

import numpy as np

from repro.index.inverted import HeuristicIndex


def generate_candidates(
    index: HeuristicIndex,
    mask: np.ndarray,
    k: int,
    *,
    overlaps: np.ndarray,
    max_duplicate_signature: int = 3,
) -> list[str]:
    """Return up to ``k`` candidate heuristic keys (Algorithm 2) for P
    given as a bool mask over sentences, with ``overlaps`` its |C_k ∩ P|
    for every index row."""
    walk = index.walk_order
    walk_overlaps = overlaps[walk]
    # Reachable keys overlapping P, in walk order; lexsort is stable, so
    # the position in the walk breaks the (-overlap, -count) ties.
    hit = walk[walk_overlaps > 0]
    hit = hit[np.lexsort((-index.counts[hit], -overlaps[hit]))]
    # C_k ∩ P for every key at once, from the forward rows of P's
    # sentences: a stable sort by row keeps each key's ids ascending, and
    # the overlaps give where each key's ids end. Rows in the smallest
    # unsigned type: numpy's stable sort is a radix sort up to 16 bits.
    positives = np.flatnonzero(mask).astype(np.int32)
    rows, lens = index.forward_rows(positives)
    order = np.argsort(rows.astype(np.min_scalar_type(len(overlaps))), kind="stable")
    by_row = np.repeat(positives, lens)[order]
    ends = np.cumsum(overlaps)
    key_of = index.key
    results: list[str] = []
    # Signature: the key's positive ids (sorted int32) as bytes.
    sig_count: dict[bytes, int] = {}
    for r in hit.tolist():
        if len(results) >= k:
            return results
        sig = by_row[ends[r] - overlaps[r]:ends[r]].tobytes()
        seen = sig_count.get(sig, 0)
        if seen >= max_duplicate_signature:
            continue  # diversity cap: skip near-duplicate candidates
        sig_count[sig] = seen + 1
        results.append(key_of(r))
    n_zero = max(0, min(max_duplicate_signature, k - len(results)))
    results.extend(key_of(r) for r in walk[walk_overlaps == 0][:n_zero].tolist())
    return results
