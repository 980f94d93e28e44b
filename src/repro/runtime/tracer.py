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

import numpy as np

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
    hidden communication never inflates the critical path.
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

#: the clock-advancing categories, in the one order their sum is taken
_ADVANCING = tuple(
    c for c in CostCategory if c is not CostCategory.COMM_HIDDEN)


class Tracer:
    """Accumulates modeled cost per (phase, category) and rank.

    One row — a float64 vector of seconds indexed by rank id — per
    (phase, category), created at the phase's first charge.  A cluster
    builds ``Tracer(n_ranks)`` and the cluster's charge methods add to
    :meth:`row` for rank groups or the whole grid.
    """

    def __init__(self, n_ranks: int) -> None:
        self._n_ranks = int(n_ranks)
        # phase -> (categories x ranks) array: one row per category, by
        # CostCategory.slot
        self._rows: dict[str, np.ndarray] = {}
        self._phase_stack: list[str] = []
        #: the current phase's entry of ``_rows`` (None until charged)
        self._current: np.ndarray | None = None

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
    def row(self, category: CostCategory) -> np.ndarray:
        """The current phase's per-rank seconds of ``category`` (a view:
        the charge paths add to it in place)."""
        if self._current is None:
            self._current = self._rows.setdefault(
                self.current_phase,
                np.zeros((len(CostCategory), self._n_ranks)))
        return self._current[category.slot]

    # -- reporting ---------------------------------------------------------------
    def phases(self) -> list[str]:
        return list(self._rows)

    def rank_total(self, rank_id: int, phase: str, category: CostCategory) -> float:
        rows = self._rows.get(phase)
        if rows is None:
            return 0.0
        return float(rows[category.slot, rank_id])

    def breakdown(self, phase: str) -> PhaseBreakdown:
        """Critical-path (max over ranks) breakdown of one phase.

        The critical rank is the one with the largest clock-advancing
        phase total (hidden communication advances no clock), summed in
        the fixed order compute + comm + datamove + recovery; equal
        totals resolve to the lowest rank id.  Ranks never charged in
        the phase do not compete, so a rank that only ever booked hidden
        communication is still reported when no rank advanced.
        """
        rows = self._rows.get(phase)
        if rows is None:
            return PhaseBreakdown(phase)
        charged = rows.any(axis=0)
        if not charged.any():
            return PhaseBreakdown(phase)
        total = rows[_ADVANCING[0].slot].copy()
        for c in _ADVANCING[1:]:
            total += rows[c.slot]
        # argmax takes the first of equal maxima: the lowest rank id
        crit = int(np.argmax(np.where(charged, total, -np.inf)))
        # PhaseBreakdown's fields follow CostCategory's (slot) order
        return PhaseBreakdown(phase, *rows[:, crit].tolist())

    def total(self, phase: str | None = None) -> float:
        """Critical-path total time of one phase (or of all phases summed)."""
        if phase is not None:
            return self.breakdown(phase).total
        return sum(self.breakdown(ph).total for ph in self.phases())
