"""Heuristic-key algebra shared by all grammars.

A heuristic (Def 2) is identified by a flat string key with a grammar
prefix — ``"tr:best way to"`` (TokensRegex) or ``"tm:t=is/p=NOUN"``
(TreeMatch) — so the Spark sketch/index layer can treat every grammar
uniformly as (sid, key) pairs. ``ROOT`` is the ``'*'`` heuristic that
matches every sentence (the index root of §3.1).

Each grammar module supplies, for its keys:

- ``sketch(sentence) -> set[str]``: all keys the sentence satisfies up
  to the derivation-depth bound (the *derivation sketch* of §3.1);
- ``matches(key, sentence) -> bool``: direct evaluation, used by tests
  and by rule application on unindexed text;
- ``parents_of(key) -> list[str]``: keys one derivation step more
  general (superset coverage), defining the hierarchy of §3.2.

:data:`GRAMMARS` maps each key prefix to its grammar; every
prefix-dispatched call goes through :func:`grammar`.
"""
from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from repro.grammar import ROOT, tokensregex, treematch


class Grammar(NamedTuple):
    """A grammar's key functions, with one matcher signature for all:
    ``matches(key, tokens, tags, parents, max_gap) -> bool``."""

    parents_of: Callable[[str], list[str]]
    matches: Callable[[str, list[str], list[str], list[int], int], bool]


GRAMMARS: dict[str, Grammar] = {
    tokensregex.PREFIX: Grammar(
        tokensregex.parents_of,
        lambda key, tokens, tags, parents, max_gap: tokensregex.matches(
            key, tokens, max_gap=max_gap
        ),
    ),
    treematch.PREFIX: Grammar(
        treematch.parents_of,
        lambda key, tokens, tags, parents, max_gap: treematch.matches(
            key, tokens, tags, parents
        ),
    ),
}


def grammar(key: str) -> Grammar:
    """The grammar that owns ``key`` (not the root)."""
    g = GRAMMARS.get(key.partition(":")[0])
    if g is None:
        raise ValueError(f"unknown grammar prefix in key {key!r}")
    return g


def parents_of(key: str) -> list[str]:
    """Dispatch to the owning grammar; the root has no parents."""
    if key == ROOT:
        return []
    return grammar(key).parents_of(key)
