"""Cost aggregation by algorithm phase and cost category.

The paper's Fig. 2 reports, for each ChASE kernel (Filter, QR,
Rayleigh-Ritz, Residuals), the time spent in computation, communication
and host-device data movement.  The tracer collects exactly that: every
cost charge carries the currently active *phase* (set by the solver via
:meth:`Tracer.phase`) and a :class:`CostCategory`, accumulated per rank.

Reported numbers are the **maximum over ranks** of each (phase,
category) accumulation — the contribution of the critical path, which is
what wall-clock measurements on a real machine observe.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.runtime.clock import CostCategory

__all__ = ["Tracer", "PhaseBreakdown"]

_IDLE_PHASE = "<unphased>"


@dataclass
class PhaseBreakdown:
    """Per-phase cost split, in modeled seconds.

    ``comm`` is *exposed* communication (it advanced the critical rank's
    clock); ``comm_hidden`` is communication a nonblocking collective
    progressed behind compute (DESIGN.md §5d).  ``total`` remains the
    wall-clock contribution — compute + exposed comm + datamove — so
    hidden communication never inflates the critical path; ``comm_total``
    is the full communication volume, equal to the blocking-mode ``comm``
    of the same collective sequence.
    """

    phase: str
    compute: float = 0.0
    comm: float = 0.0
    datamove: float = 0.0
    comm_hidden: float = 0.0
    recovery: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.comm + self.datamove + self.recovery

    @property
    def comm_total(self) -> float:
        """Exposed + hidden communication of the critical rank."""
        return self.comm + self.comm_hidden

    def as_dict(self) -> dict[str, float]:
        return {
            "phase": self.phase,
            "compute": self.compute,
            "comm": self.comm,
            "datamove": self.datamove,
            "comm_hidden": self.comm_hidden,
            "recovery": self.recovery,
            "total": self.total,
        }


#: the clock-advancing categories, in the one order their sum is taken
_ADVANCING = tuple(
    c for c in CostCategory if c is not CostCategory.COMM_HIDDEN)


class Tracer:
    """Accumulates modeled cost per (phase, category) and rank.

    One row — a list of seconds indexed by rank id — per (phase,
    category), created at the phase's first charge.  A cluster builds
    ``Tracer(n_ranks)`` and :meth:`VirtualCluster.charge` adds to
    :meth:`row` for whole rank groups; a standalone ``Tracer()`` takes
    arbitrary rank ids through :meth:`add`, its rows growing on demand.
    """

    def __init__(self, n_ranks: int = 0) -> None:
        self._n_ranks = int(n_ranks)
        # phase -> one equally long row per category, by CostCategory.slot
        self._rows: dict[str, list[list[float]]] = {}
        self._phase_stack: list[str] = []
        #: the current phase's entry of ``_rows`` (None until charged)
        self._current: list[list[float]] | None = None

    # -- phase scoping --------------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else _IDLE_PHASE

    @contextmanager
    def phase(self, name: str):
        """Scope subsequent charges to phase ``name`` (re-entrant)."""
        self._phase_stack.append(name)
        self._current = self._rows.get(name)
        try:
            yield self
        finally:
            self._phase_stack.pop()
            self._current = self._rows.get(self.current_phase)

    # -- charging --------------------------------------------------------------
    def row(self, category: CostCategory) -> list[float]:
        """The current phase's per-rank seconds of ``category`` (mutable:
        the group charge path adds to it in place)."""
        if self._current is None:
            self._current = self._rows.setdefault(
                self.current_phase,
                [[0.0] * self._n_ranks for _ in CostCategory])
        return self._current[category.slot]

    def add(self, rank_id: int, category: CostCategory, dt: float) -> None:
        if dt < 0:
            raise ValueError("negative cost charge")
        row = self.row(category)
        if rank_id >= len(row):
            for grown in self._current:
                grown.extend([0.0] * (rank_id + 1 - len(grown)))
        row[rank_id] += dt

    # -- reporting ---------------------------------------------------------------
    def phases(self) -> list[str]:
        return list(self._rows)

    def rank_total(self, rank_id: int, phase: str, category: CostCategory) -> float:
        rows = self._rows.get(phase)
        if rows is None or rank_id >= len(rows[0]):
            return 0.0
        return rows[category.slot][rank_id]

    def breakdown(self, phase: str) -> PhaseBreakdown:
        """Critical-path (max over ranks) breakdown of one phase.

        The critical rank is the one with the largest clock-advancing
        phase total (hidden communication advances no clock), summed in
        the fixed order compute + comm + datamove + recovery; equal
        totals resolve to the lowest rank id.  Ranks never charged in
        the phase do not compete, so a rank that only ever booked hidden
        communication is still reported when no rank advanced.
        """
        crit, best = (), -1.0
        for charged in zip(*self._rows.get(phase, ())):
            if any(charged):
                total = sum(charged[c.slot] for c in _ADVANCING)
                if total > best:
                    crit, best = charged, total
        # PhaseBreakdown's fields follow CostCategory's (slot) order
        return PhaseBreakdown(phase, *crit)

    def total(self, phase: str | None = None) -> float:
        """Critical-path total time of one phase (or of all phases summed)."""
        if phase is not None:
            return self.breakdown(phase).total
        return sum(self.breakdown(ph).total for ph in self.phases())

    def reset(self) -> None:
        self._rows.clear()
        self._current = None
