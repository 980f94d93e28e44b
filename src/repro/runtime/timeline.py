"""Per-rank event timelines — Gantt-style observability.

The tracer (:mod:`repro.runtime.tracer`) aggregates cost totals; the
timeline records *intervals*: every charge becomes an event with a
start/end time on its rank's clock, so an execution can be rendered as
an ASCII Gantt chart or exported for external tooling (e.g. a Chrome
``chrome://tracing`` JSON).

Enable by attaching a :class:`Timeline` to a cluster::

    cluster = VirtualCluster(4)
    timeline = Timeline.attach(cluster)
    ... run a solver ...
    print(timeline.render())

Attachment registers one listener on the cluster's charge choke point
(``VirtualCluster.charge`` and its hidden-communication booking), so
group charges are seen like per-rank ones; detach removes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from repro.runtime.clock import CostCategory

__all__ = ["TimelineEvent", "Timeline"]

_GLYPH = {
    CostCategory.COMPUTE: "#",
    CostCategory.COMM: "~",
    CostCategory.DATAMOVE: ".",
    CostCategory.COMM_HIDDEN: "-",
}


@dataclass(frozen=True)
class TimelineEvent:
    """One charged interval on one rank."""

    rank_id: int
    phase: str
    category: CostCategory
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Interval length in modeled seconds."""
        return self.end - self.start


class Timeline:
    """Interval recorder listening at a cluster's charge choke point."""

    def __init__(self) -> None:
        self.events: list[TimelineEvent] = []
        self._attached: list = []  # (cluster's listener list, our listener)

    # -- attachment -------------------------------------------------------------
    @classmethod
    def attach(cls, cluster) -> "Timeline":
        """Start recording every charge on ``cluster``'s ranks."""
        tl = cls()
        tl.attach_to(cluster)
        return tl

    def attach_to(self, cluster) -> "Timeline":
        """Attach this timeline to ``cluster`` (idempotent).

        A cluster this timeline already listens to is skipped, so calling
        attach twice never records a charge twice (a double-count bug,
        not a double-render cosmetic issue).  Survivor clusters of
        ``shrink()`` share their parent's listener list.  Returns
        ``self`` for chaining.
        """
        listeners = cluster.charge_listeners
        if all(ls is not listeners for ls, _listener in self._attached):
            listener = partial(self._record, cluster.tracer)
            listeners.append(listener)
            self._attached.append((listeners, listener))
        return self

    def _record(self, tracer, rank_ids, category, starts, ends) -> None:
        """One charge of a rank group: an event per member, each with the
        member's own interval."""
        phase = tracer.current_phase
        self.events.extend(
            TimelineEvent(r, phase, category, start, end)
            for r, start, end in zip(rank_ids, starts, ends)
        )

    def detach(self) -> None:
        """Stop listening."""
        for listeners, listener in self._attached:
            listeners.remove(listener)
        self._attached.clear()

    # -- queries ---------------------------------------------------------------
    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) over all recorded events."""
        if not self.events:
            return 0.0, 0.0
        return (
            min(e.start for e in self.events),
            max(e.end for e in self.events),
        )

    def rank_events(self, rank_id: int) -> list[TimelineEvent]:
        """Events charged by one rank, in recording order."""
        return [e for e in self.events if e.rank_id == rank_id]

    def busy_fraction(self, rank_id: int) -> float:
        """Charged time / wall span for one rank (1 - idle fraction)."""
        lo, hi = self.span()
        wall = hi - lo
        if wall <= 0:
            return 0.0
        busy = sum(e.duration for e in self.rank_events(rank_id))
        return min(busy / wall, 1.0)

    # -- rendering -----------------------------------------------------------------
    def render(self, width: int = 80) -> str:
        """ASCII Gantt chart: one row per rank.

        ``#`` compute, ``~`` communication, ``.`` data movement,
        ``-`` hidden communication, spaces idle.  Later events overwrite
        earlier ones per cell.
        """
        if width < 10:
            raise ValueError("width must be >= 10")
        lo, hi = self.span()
        wall = hi - lo
        ranks = sorted({e.rank_id for e in self.events})
        lines = [
            f"timeline: {wall:.6f} s across {len(ranks)} ranks "
            f"(# compute, ~ comm, . datamove, - hidden comm)"
        ]
        if wall <= 0:
            return lines[0]
        for rid in ranks:
            row = [" "] * width
            for e in self.rank_events(rid):
                a = int((e.start - lo) / wall * (width - 1))
                b = max(int((e.end - lo) / wall * (width - 1)), a)
                for x in range(a, b + 1):
                    row[x] = _GLYPH[e.category]
            lines.append(f"rank {rid:3d} |{''.join(row)}|")
        return "\n".join(lines)

    def to_chrome_trace(self) -> str:
        """Chrome ``about://tracing`` / Perfetto JSON export."""
        payload = [
            {
                "name": f"{e.phase}:{e.category.value}",
                "cat": e.category.value,
                "ph": "X",
                "ts": e.start * 1e6,
                "dur": e.duration * 1e6,
                "pid": 0,
                "tid": e.rank_id,
            }
            for e in self.events
        ]
        return json.dumps(payload)
