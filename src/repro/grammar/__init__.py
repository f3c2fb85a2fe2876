"""Heuristic grammars. ``ROOT`` is the ``'*'`` heuristic that matches
every sentence (the index root of §3.1)."""

ROOT = "*"
