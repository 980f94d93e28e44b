"""Per-rank virtual clocks and cost categories."""

from __future__ import annotations

import enum

__all__ = ["CostCategory", "Clock"]


class CostCategory(enum.Enum):
    """The three cost classes the paper breaks kernels into (Fig. 2),
    plus the hidden-communication class of nonblocking collectives.

    ``COMM_HIDDEN`` intervals are communication that progressed *behind*
    local compute between a nonblocking collective's issue and its
    ``wait()`` (DESIGN.md §5d).  They never advance a rank's clock —
    only the exposed remainder (charged as ``COMM``) does — so for any
    collective ``COMM + COMM_HIDDEN`` equals the blocking-mode charge.
    """

    COMPUTE = "compute"
    COMM = "communication"
    DATAMOVE = "data movement"
    COMM_HIDDEN = "hidden communication"
    #: fault-tolerance overhead: checkpoint writes/reads, collective
    #: retry backoff, and post-failure re-layout (DESIGN.md §5f).  It
    #: advances the clock like COMPUTE/COMM — resilience is honest wall
    #: time — but is reported separately so overhead is visible.
    RECOVERY = "recovery"


# dense index of each category: the tracer keeps one row per category
# in a list, so the charge path never hashes an Enum member
for _slot, _category in enumerate(CostCategory):
    _category.slot = _slot


class Clock:
    """A monotonically advancing virtual clock for one rank.

    Local work advances the clock by the modeled kernel time; collective
    operations first *synchronize* the clock to the barrier entry time
    (``sync_to``; the skipped interval is idle wait, charged to no
    category) and then advance it by the collective's modeled time.

    The time itself lives in a list: a standalone ``Clock(start)`` owns a
    one-slot list, a rank's clock is a view of its slot in the owning
    cluster's flat ``clocks`` (``shared``/``index``), which is what
    :meth:`VirtualCluster.charge` advances for whole groups at once.
    """

    __slots__ = ("_times", "_i")

    def __init__(self, start: float = 0.0, *,
                 shared: list[float] | None = None, index: int = 0) -> None:
        self._times = [float(start)] if shared is None else shared
        self._i = index

    @property
    def now(self) -> float:
        return self._times[self._i]

    def advance(self, dt: float) -> float:
        """Advance by ``dt`` seconds (must be non-negative); returns new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self._times[self._i] += dt
        return self._times[self._i]

    def sync_to(self, t: float) -> float:
        """Jump forward to time ``t`` (no-op if already past it)."""
        if t > self._times[self._i]:
            self._times[self._i] = t
        return self._times[self._i]

    def reset(self, t: float = 0.0) -> None:
        self._times[self._i] = float(t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Clock(now={self.now:.6f})"
