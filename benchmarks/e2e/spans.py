"""In-memory spans for the traced run, and the arithmetic on them.

A span is ``[name, start, end, parent]`` (``parent`` is the index of the
span that was open when this one started, ``-1`` for a root).  The
benchmark is a closed loop with one operation in flight on the main
thread, so one stack is enough; worker processes of the ``mp`` transport
are not traced (their time shows as the main thread waiting inside the
``runtime.comm.*`` spans).

Two per-name figures come out of a span list:

* ``time_s`` / ``calls`` — inclusive time and count of the *outermost*
  spans of that name (a ``core.qr`` span opened inside another
  ``core.qr`` span is not counted twice);
* ``self_s`` — exclusive time: duration minus the part covered by direct
  children, summed over every span of that name.  Self times partition
  the root spans, which is what :func:`closure_problems` checks.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass

NAME, START, END, PARENT = range(4)


@dataclass
class Stat:
    """Per-name aggregate of a span list."""

    calls: int = 0
    time_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Collects spans while recording; a no-op otherwise.

    While recording, a span lives in four parallel columns of plain
    strings, floats and ints.  One small list per span would hand the
    cyclic garbage collector a quarter of a million tracked containers per
    ``phantom_strong`` repetition, and the collections that triggers cost
    more than the wrappers themselves.
    """

    def __init__(self) -> None:
        # cleared in place, never replaced: the wrappers hold references
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        #: counts taken at the same boundaries as the spans
        self.counters: defaultdict[str, float] = defaultdict(float)
        #: True while recording and not below an opaque span
        self._live = False

    @property
    def spans(self) -> list[list]:
        """The recorded spans as ``[name, start, end, parent]`` rows."""
        return [list(row) for row in zip(
            self._names, self._starts, self._ends, self._parents)]

    def reset(self) -> None:
        for column in (self._names, self._starts, self._ends, self._parents,
                       self._stack):
            column.clear()
        self.counters.clear()

    @contextlib.contextmanager
    def recording(self):
        """Record for the scope's duration (one traced repetition)."""
        self.reset()
        self._live = True
        try:
            yield self
        finally:
            self._live = False

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the harness itself around a call into a layer."""
        if not self._live:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, *, after=None, opaque: bool = False):
        """``fn`` with a span around every call.

        ``after(counters, args, kwargs, result)`` runs once the span has
        closed and takes the counts that belong to this boundary.
        ``opaque`` mutes every span below this one: the callee's inner
        calls are its own business (the autotuner's dry-run solves must
        not be booked as solver phases).
        """
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._live:
                return fn(*args, **kwargs)
            idx = self._open(name)
            if opaque:
                self._live = False
            try:
                result = fn(*args, **kwargs)
            finally:
                if opaque:
                    self._live = True
                self._close(idx)
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced


# ------------------------------------------------------------------ arithmetic
def child_time(spans: list[list]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return covered


def summarize(spans: list[list]) -> dict[str, Stat]:
    """Per-name ``calls`` / ``time_s`` (outermost) and ``self_s``."""
    covered = child_time(spans)
    stats: dict[str, Stat] = defaultdict(Stat)
    for idx, s in enumerate(spans):
        dur = s[END] - s[START]
        st = stats[s[NAME]]
        st.self_s += dur - covered[idx]
        if not has_ancestor(spans, idx, (s[NAME],)):
            st.calls += 1
            st.time_s += dur
    return dict(stats)


def has_ancestor(spans: list[list], idx: int, names) -> bool:
    """True when a span above ``idx`` carries one of ``names``."""
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def residual_self(spans: list[list], name: str, phases) -> float:
    """Time of the ``name`` spans not covered by direct ``phases`` children.

    This is the driver's own share of a solve: everything the solve span
    did outside its phase calls (including calls into other layers made
    directly from the driver).
    """
    total = 0.0
    for idx, s in enumerate(spans):
        if s[NAME] == name and not has_ancestor(spans, idx, (name,)):
            total += s[END] - s[START]
    for s in spans:
        p = s[PARENT]
        if p >= 0 and s[NAME] in phases and spans[p][NAME] == name \
                and not has_ancestor(spans, p, (name,)):
            total -= s[END] - s[START]
    return total


def closure_problems(spans: list[list], stats: dict[str, Stat],
                     rel_tol: float = 0.02) -> list[str]:
    """Why the layers do not sum to the end-to-end figure (empty if they do).

    * every span must be closed and must contain its children;
    * the per-name self times must add up to the root spans' durations.
    """
    problems = []
    covered = child_time(spans)
    for idx, s in enumerate(spans):
        dur = s[END] - s[START]
        if s[END] < s[START]:
            problems.append(f"span {idx} ({s[NAME]}) was never closed")
        elif covered[idx] > dur * (1.0 + rel_tol) + 1e-6:
            problems.append(
                f"children of span {idx} ({s[NAME]}) cover {covered[idx]:.6f}s "
                f"of its {dur:.6f}s")
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    selfs = sum(st.self_s for st in stats.values())
    if abs(selfs - roots) > rel_tol * max(roots, 1e-9):
        problems.append(
            f"self times sum to {selfs:.6f}s, root spans to {roots:.6f}s")
    return problems
