"""TokensRegex grammar (Def 1–2, Example 2).

Heuristics are token sequences with an optional single ``*`` gap:

- contiguous n-grams of length 1..``max_len`` — ``"tr:best way to"``
  matches any sentence containing that phrase;
- gapped patterns ``"tr:a * b"`` — tokens ``a`` then ``b`` with 1..
  ``max_gap`` tokens in between (the grammar's Kleene-ish operator,
  bounded so the derivation sketch stays finite, §3.1 "fixed number of
  derivation rules").

Keys are space-joined lower-case tokens after the ``tr:`` prefix.

Hierarchy semantics (one derivation step more general ⇒ parent):
- an n-gram's parents drop its first or last token;
- a unigram's parent is the root ``*``;
- ``a * b``'s parents are the unigrams ``a`` and ``b``.
"""
from __future__ import annotations

from repro.grammar import ROOT

PREFIX = "tr"
GAP = "*"
_HEAD = PREFIX + ":"


def key_of(tokens: tuple[str, ...] | list[str]) -> str:
    """Encode a token pattern as a flat key."""
    return _HEAD + " ".join(tokens)


def pattern_of(key: str) -> tuple[str, ...]:
    """Decode a key back to its token pattern."""
    assert key.startswith(_HEAD), key
    return tuple(key[len(_HEAD):].split(" "))


def sketch(tokens: list[str], *, max_len: int = 4, max_gap: int = 3) -> set[str]:
    """All TokensRegex keys the sentence satisfies (its derivation sketch)."""
    out: set[str] = set()
    n = len(tokens)
    for i in range(n):
        for ln in range(1, min(max_len, n - i) + 1):
            out.add(key_of(tokens[i : i + ln]))
    if max_gap > 0:
        for i in range(n):
            for j in range(i + 2, min(n, i + 2 + max_gap)):
                out.add(key_of((tokens[i], GAP, tokens[j])))
    return out


def matches(key: str, tokens: list[str], *, max_gap: int = 3) -> bool:
    """Direct evaluation of ``key`` against a token sequence."""
    pat = pattern_of(key)
    n, m = len(tokens), len(pat)
    if GAP in pat:
        a, _, b = pat  # single-gap patterns are always 'a * b'
        for i in range(n):
            if tokens[i] == a and b in tokens[i + 2 : i + 2 + max_gap]:
                return True
        return False
    first = pat[0]
    for i in range(n - m + 1):
        if tokens[i] == first and tuple(tokens[i : i + m]) == pat:
            return True
    return False


def parents_of(key: str) -> list[str]:
    """Keys one derivation step more general (superset coverage)."""
    pat = pattern_of(key)
    if GAP in pat:
        a, _, b = pat
        return [key_of((a,)), key_of((b,))]
    if len(pat) == 1:
        return [ROOT]
    return list({key_of(pat[1:]), key_of(pat[:-1])})


def display(key: str) -> str:
    """Human-readable form shown to the (simulated) annotator."""
    return "'" + " ".join(pattern_of(key)) + "'"
