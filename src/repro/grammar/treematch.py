"""TreeMatch grammar (Def 3): patterns over dependency parse trees.

Terminals are tokens (``t=shuttle``) or POS tags (``p=NOUN``). Keys:

- ``tm:<term>``           — terminal occurs in the sentence;
- ``tm:<a>/<b>``          — a node matching ``a`` has a *child* matching ``b``;
- ``tm:<a>//<b>``         — a node matching ``a`` has a strict *descendant*
                            matching ``b``;
- ``tm:<a>/<b>&<t=w>``    — child pattern AND token ``w`` occurs anywhere
                            (the ∧ operator; one conjunct, token-only, to
                            bound the sketch — §3.1 "fixed number of steps").

Hierarchy semantics (parent = one step more general):
``a/b`` → ``a//b`` (child implies descendant) → terminals ``a`` and
``b`` → root; a conjunction's parents are its two conjuncts.

The derivation sketch of a sentence is computed from its parent-index
array (depparse), matching the paper's observation that the parse tree
itself is a compact sketch for this grammar.
"""
from __future__ import annotations

from functools import reduce
from operator import and_

from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.grammar import ROOT, any_window
from repro.text.depparse import children_of, descendants_of

PREFIX = "tm"


def _terms(i: int, tokens: list[str], tags: list[str]) -> tuple[str, str]:
    return f"t={tokens[i]}", f"p={tags[i]}"


def sketch(tokens: list[str], tags: list[str], parents: list[int]) -> set[str]:
    """All TreeMatch keys the sentence satisfies."""
    out: set[str] = set()
    n = len(tokens)
    for i in range(n):
        tw, tp = _terms(i, tokens, tags)
        out.add(f"{PREFIX}:{tw}")
        out.add(f"{PREFIX}:{tp}")

    pair_keys: list[str] = []
    for c, h in enumerate(parents):
        if h < 0:
            continue
        hw, hp = _terms(h, tokens, tags)
        cw, cp = _terms(c, tokens, tags)
        for a in (hw, hp):
            for b in (cw, cp):
                pair_keys.append(f"{PREFIX}:{a}/{b}")
    out.update(pair_keys)

    for i in range(n):
        iw, ip = _terms(i, tokens, tags)
        for d in descendants_of(parents, i):
            dw, dp = _terms(d, tokens, tags)
            for a in (iw, ip):
                for b in (dw, dp):
                    out.add(f"{PREFIX}:{a}//{b}")

    words = {f"t={w}" for w in tokens}
    for pk in pair_keys:
        body = pk.split(":", 1)[1]
        for w in words:
            # Skip self-conjunctions that add no constraint.
            if w not in body.split("/"):
                out.add(f"{pk}&{w}")
    return out


def _match_term(term: str, i: int, tokens: list[str], tags: list[str]) -> bool:
    kind, _, val = term.partition("=")
    return tokens[i] == val if kind == "t" else tags[i] == val


def matches(key: str, tokens: list[str], tags: list[str], parents: list[int]) -> bool:
    """Direct evaluation of a TreeMatch key against a parsed sentence."""
    body = key.split(":", 1)[1]
    conj = None
    if "&" in body:
        body, conj = body.split("&", 1)
    if conj is not None and not any(
        _match_term(conj, i, tokens, tags) for i in range(len(tokens))
    ):
        return False
    if "//" in body:
        a, b = body.split("//")
        for i in range(len(tokens)):
            if _match_term(a, i, tokens, tags):
                for d in descendants_of(parents, i):
                    if _match_term(b, d, tokens, tags):
                        return True
        return False
    if "/" in body:
        a, b = body.split("/")
        kids = children_of(parents)
        for i in range(len(tokens)):
            if _match_term(a, i, tokens, tags):
                for c in kids.get(i, []):
                    if _match_term(b, c, tokens, tags):
                        return True
        return False
    return any(_match_term(body, i, tokens, tags) for i in range(len(tokens)))


def column(key: str) -> Column:
    """``key`` compiled to a boolean column over the ``tokens``, ``tags``
    and ``parents`` columns, true exactly where :func:`matches` is.

    Raises a ``ValueError`` naming the key for a form this grammar does
    not define (a term other than ``t=``/``p=``, or more than one ``/``
    or ``//``).
    """
    body = key.split(":", 1)[1]
    conj = None
    if "&" in body:
        body, conj = body.split("&", 1)
    sep = "//" if "//" in body else "/"
    pair = [_column_term(key, t) for t in body.split(sep)]
    if len(pair) > 2:
        raise ValueError(f"cannot compile TreeMatch key {key!r}: more than one {sep!r}")
    terms = pair + ([_column_term(key, conj)] if conj is not None else [])
    # Every terminal must occur (compiled code) before a tree test, a
    # lambda Spark interprets, runs.
    col = reduce(and_, (_anywhere(*t) for t in dict.fromkeys(terms)))
    if len(pair) == 2:
        col = col & (_descendant if sep == "//" else _child)(*pair)
    return col


def _column_term(key: str, term: str) -> tuple[str, str]:
    """A terminal as (the array column it tests, the value)."""
    kind, eq, val = term.partition("=")
    if not eq or kind not in ("t", "p"):
        raise ValueError(f"cannot compile TreeMatch key {key!r}: term {term!r}")
    return ("tokens" if kind == "t" else "tags"), val


def _anywhere(array: str, val: str) -> Column:
    return F.array_contains(F.col(array), val)


def _at(term: tuple[str, str], i: Column) -> Column:
    array, val = term
    return F.get(F.col(array), i) == val


def _child(a: tuple[str, str], b: tuple[str, str]) -> Column:
    """Some node matching ``b`` has a parent matching ``a``."""
    parents = F.col("parents")
    return any_window(parents, 1, lambda c: (F.get(parents, c) >= 0)
                      & _at(b, c) & _at(a, F.get(parents, c)))


def _descendant(a: tuple[str, str], b: tuple[str, str]) -> Column:
    """Some node matching ``b`` has a strict ancestor matching ``a``: an
    ancestor walk of ``size(parents)`` steps, enough for any tree."""
    parents = F.col("parents")

    def above(d: Column) -> Column:
        start = F.struct(F.get(parents, d).alias("node"), F.lit(False).alias("found"))

        def step(acc: Column, _: Column) -> Column:
            node = acc["node"]
            return F.struct(
                F.when(node >= 0, F.get(parents, node)).otherwise(-1).alias("node"),
                (acc["found"] | ((node >= 0) & _at(a, node))).alias("found"),
            )

        walk = F.aggregate(F.sequence(F.lit(1), F.size(parents)), start, step,
                           lambda acc: acc["found"])
        return _at(b, d) & walk

    return any_window(parents, 1, above)


def parents_of(key: str) -> list[str]:
    """Keys one derivation step more general."""
    body = key.split(":", 1)[1]
    if "&" in body:
        pair, conj = body.split("&", 1)
        return list({f"{PREFIX}:{pair}", f"{PREFIX}:{conj}"})
    if "//" in body:
        a, b = body.split("//")
        return list({f"{PREFIX}:{a}", f"{PREFIX}:{b}"})
    if "/" in body:
        a, b = body.split("/")
        return [f"{PREFIX}:{a}//{b}"]
    return [ROOT]
