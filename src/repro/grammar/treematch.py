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

from repro.grammar import ROOT
from repro.text.depparse import children_of, descendants_of

PREFIX = "tm"


def _terms(i: int, tokens: list[str], tags: list[str]) -> tuple[str, str]:
    return f"t={tokens[i]}", f"p={tags[i]}"


def sketch(
    tokens: list[str],
    tags: list[str],
    parents: list[int],
    *,
    include_desc: bool = True,
    include_conj: bool = True,
) -> set[str]:
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

    if include_desc:
        for i in range(n):
            iw, ip = _terms(i, tokens, tags)
            for d in descendants_of(parents, i):
                dw, dp = _terms(d, tokens, tags)
                for a in (iw, ip):
                    for b in (dw, dp):
                        out.add(f"{PREFIX}:{a}//{b}")

    if include_conj:
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
        kids = None
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


def display(key: str) -> str:
    """Paper-style rendering, e.g. '/is/NOUN∧job'."""
    body = key.split(":", 1)[1]
    conj = ""
    if "&" in body:
        body, c = body.split("&", 1)
        conj = "∧" + c.split("=", 1)[1]
    body = "/".join(p.split("=", 1)[1] for p in body.split("/"))
    return "/" + body + conj
