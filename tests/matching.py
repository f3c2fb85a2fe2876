"""The direct (index-free) evaluation of any grammar's key in Python:
the reference that the compiled rule columns and the index are checked
against."""
from repro.grammar import ROOT
from repro.grammar.base import grammar
from repro.index.sketch import SketchConfig


def matches_sentence(
    key: str, tokens: list[str], tags: list[str], parents: list[int],
    cfg: SketchConfig = SketchConfig(),
) -> bool:
    """Whether ``key`` holds on one parsed sentence."""
    if key == ROOT:
        return True
    return grammar(key).matches(key, tokens, tags, parents, cfg.max_gap)
