"""Heuristic grammars. ``ROOT`` is the ``'*'`` heuristic that matches
every sentence (the index root of §3.1)."""
from __future__ import annotations

from collections.abc import Callable

from pyspark.sql import Column
from pyspark.sql import functions as F

ROOT = "*"


def any_window(array: Column, width: int, pred: Callable[[Column], Column]) -> Column:
    """True iff ``pred(i)`` holds at some 0-based start ``i`` of a
    ``width``-long window of ``array``; false when the array is shorter.

    ``pred`` reads elements with ``F.get``, which gives null outside the
    array where ``array[i]`` raises under ANSI mode.
    """
    n = F.size(array)
    return (n >= width) & F.exists(F.sequence(F.lit(0), n - width), pred)
