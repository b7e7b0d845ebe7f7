"""In-memory spans for the traced benchmark run.

A span is one call across a layer boundary: a name, a start, an end and the
span that was open when it began (its parent).  Spans are kept in flat arrays
until the run ends, then reduced to per-name call counts and self times.
Self time is a span's duration minus the durations of its direct children;
calls in this single-threaded simulator nest strictly, so children never
overlap one another.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np


class SpanLog:
    """Append-only span store with a stack of the spans currently open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or a method) by its traced wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        return self_times(self.names, self.name, self.parent, self.start, self.end)


def self_times(names, name_ids, parents, starts, ends) -> dict[str, tuple[int, float]]:
    """Reduce spans to ``{name: (calls, self seconds)}``.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    n_names = len(names)
    nid = np.asarray(name_ids, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    if (dur < 0).any():
        raise ValueError("a span ends before it starts (was it left open?)")
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child_time
    calls = np.bincount(nid, minlength=n_names)
    self_s = np.bincount(nid, weights=own, minlength=n_names)
    return {names[k]: (int(calls[k]), float(self_s[k])) for k in range(n_names)}
