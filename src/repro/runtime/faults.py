"""Deterministic fault injection for the simulated runtime (DESIGN.md §5f).

Long production eigenproblem sequences (DFT self-consistency loops) run
for hours across many nodes, where rank failures, flaky links and
memory corruption are routine.  This module gives the simulator a
*fault model*: a :class:`FaultPlan` schedules seeded, reproducible
events, and a :class:`FaultInjector` (attached to a
:class:`~repro.runtime.cluster.VirtualCluster`) arms them against the
hooks in :class:`~repro.runtime.communicator.Communicator` and the
solver loop.

Event kinds and their trigger domains:

* **comm-level** (triggered by *model time*, observed at collective
  entry — the realistic detection point of a distributed system):

  - ``RANK_DEATH`` — the rank stops participating; the next collective
    that includes it raises :class:`RankDeathError` and recovery must
    shrink to the surviving ``p' x q'`` grid;
  - ``COLLECTIVE_TRANSIENT`` — the next collective touching the target
    rank fails ``attempts`` times; the communicator retries with
    exponential backoff charged to the perf model (RECOVERY category)
    and raises a typed :class:`CollectiveError` once the retry budget
    is exhausted;
  - ``LINK_SLOWDOWN`` — collectives touching the target rank within
    ``[time, time + duration]`` are charged ``factor`` times their
    modeled cost (a flaky NIC / congested leaf switch);

* **solver-level** (triggered by *iteration index*, polled at the top
  of each outer iteration — iteration boundaries are the only points
  that are bit-identical across every execution configuration):

  - ``BIT_CORRUPTION`` — flips an exponent bit of one element of the
    target rank's local C panel (all replicas, so every execution
    configuration sees the identical corrupted state); detected by the
    solver's locked-residual sweep;
  - ``KERNEL_CRASH`` — a device kernel batch aborts: the solver's
    poll raises :class:`ExecutorFaultError` and recovery restarts the
    iteration from the last checkpoint.

With no injector attached every hook is a no-op returning the exact
seed control flow — modeled times, CommStats and numerics stay
bit-identical to a build without this module.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultError",
    "CollectiveError",
    "RankDeathError",
    "CorruptionError",
    "ExecutorFaultError",
    "RecoveryExhaustedError",
    "CHECKPOINT_BANDWIDTH",
    "CHECKPOINT_LATENCY",
]

#: modeled parallel-filesystem (burst-buffer) bandwidth for checkpoint
#: writes and restores, bytes/second per rank stream
CHECKPOINT_BANDWIDTH = 8e9
#: modeled per-operation filesystem latency, seconds
CHECKPOINT_LATENCY = 1e-4


# --------------------------------------------------------------------------- errors
class FaultError(RuntimeError):
    """Base class of every typed fault raised by the injection layer."""


class CollectiveError(FaultError):
    """A collective failed transiently and exhausted its retry budget."""

    def __init__(self, op: str, rank: int, attempts: int):
        super().__init__(
            f"collective {op!r} failed {attempts} times (transient fault "
            f"at rank {rank}); retry budget exhausted"
        )
        self.op = op
        self.rank = rank
        self.attempts = attempts


class RankDeathError(FaultError):
    """One or more participants of a collective are dead."""

    def __init__(self, dead_ranks):
        dead = tuple(sorted(int(r) for r in dead_ranks))
        super().__init__(f"rank(s) {dead} died")
        self.dead_ranks = dead


class CorruptionError(FaultError):
    """Corrupted state detected by a solver integrity check.

    ``restart`` marks detections that invalidate *every* checkpoint
    taken since the corruption (e.g. the final spectrum-coverage check
    caught a silently lost search direction): recovery must restart
    from the clean initial snapshot instead of the last checkpoint.
    """

    def __init__(self, message: str, column: int | None = None,
                 residual: float | None = None, restart: bool = False):
        super().__init__(message)
        self.column = column
        self.residual = residual
        self.restart = restart


class ExecutorFaultError(FaultError):
    """A kernel batch aborted (simulated device/driver crash)."""


class RecoveryExhaustedError(FaultError):
    """Recovery gave up: retry budget spent or no survivors remain."""


# --------------------------------------------------------------------------- events
class FaultKind(enum.Enum):
    """The five fault classes the injector can schedule."""

    RANK_DEATH = "rank_death"
    COLLECTIVE_TRANSIENT = "collective_transient"
    LINK_SLOWDOWN = "link_slowdown"
    BIT_CORRUPTION = "bit_corruption"
    KERNEL_CRASH = "kernel_crash"


#: kinds triggered by model time (observed at collective entry)
_TIME_KINDS = frozenset(
    {FaultKind.RANK_DEATH, FaultKind.COLLECTIVE_TRANSIENT, FaultKind.LINK_SLOWDOWN}
)
#: kinds triggered by outer-iteration index (configuration-invariant points)
_ITERATION_KINDS = frozenset(
    {FaultKind.BIT_CORRUPTION, FaultKind.KERNEL_CRASH}
)


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``time`` (model seconds) triggers comm-level kinds; ``iteration``
    (outer-iteration index, 1-based) triggers solver-level kinds —
    exactly one of the two must be set, matching the kind's domain.
    """

    kind: FaultKind
    rank: int = 0
    time: float | None = None
    iteration: int | None = None
    attempts: int = 1        # COLLECTIVE_TRANSIENT: consecutive failures
    factor: float = 4.0      # LINK_SLOWDOWN: comm-cost multiplier
    duration: float = 5e-3   # LINK_SLOWDOWN: window length, seconds
    seed: int = 0            # BIT_CORRUPTION: per-event RNG seed

    def __post_init__(self) -> None:
        if (self.time is None) == (self.iteration is None):
            raise ValueError("exactly one of time/iteration must be set")
        if self.kind in _TIME_KINDS and self.time is None:
            raise ValueError(f"{self.kind.value} must be time-triggered")
        if self.kind in _ITERATION_KINDS and self.iteration is None:
            raise ValueError(f"{self.kind.value} must be iteration-triggered")
        if self.time is not None and self.time < 0:
            raise ValueError("event time must be >= 0")
        if self.iteration is not None and self.iteration < 1:
            raise ValueError("event iteration must be >= 1 (1-based)")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if self.duration <= 0:
            raise ValueError("slowdown duration must be > 0")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events."""

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: FaultKind) -> list[FaultEvent]:
        return [e for e in self.events if e.kind is kind]

    @classmethod
    def random(
        cls,
        seed: int,
        n_ranks: int,
        *,
        horizon: float = 0.01,
        n_events: int = 4,
        max_iterations: int = 8,
        allow_death: bool = True,
    ) -> "FaultPlan":
        """A seeded random plan: identical seed => identical plan.

        Time-triggered events are drawn uniformly over ``[0, horizon]``
        model seconds (pass the fault-free makespan of the target solve
        to cover its full span); iteration-triggered events over
        ``[1, max_iterations]``.  At most ``n_ranks - 1`` rank deaths
        are scheduled so a surviving grid always exists.
        """
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if n_events < 0:
            raise ValueError(f"n_events must be >= 0, got {n_events}")
        if not horizon > 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {max_iterations}")
        rng = np.random.default_rng(seed)
        kinds = [
            FaultKind.COLLECTIVE_TRANSIENT,
            FaultKind.LINK_SLOWDOWN,
            FaultKind.BIT_CORRUPTION,
            FaultKind.KERNEL_CRASH,
        ]
        weights = [0.3, 0.2, 0.3, 0.2]
        if allow_death and n_ranks > 1:
            kinds.append(FaultKind.RANK_DEATH)
            weights.append(0.25)
        w = np.asarray(weights) / np.sum(weights)
        events: list[FaultEvent] = []
        deaths = 0
        for k in range(n_events):
            kind = kinds[int(rng.choice(len(kinds), p=w))]
            if kind is FaultKind.RANK_DEATH and deaths >= n_ranks - 1:
                kind = FaultKind.COLLECTIVE_TRANSIENT
            rank = int(rng.integers(n_ranks))
            ev_seed = int(rng.integers(2**31 - 1))
            if kind in _TIME_KINDS:
                t = float(rng.uniform(0.0, horizon))
                if kind is FaultKind.RANK_DEATH:
                    deaths += 1
                    events.append(FaultEvent(kind, rank=rank, time=t))
                elif kind is FaultKind.COLLECTIVE_TRANSIENT:
                    events.append(FaultEvent(
                        kind, rank=rank, time=t,
                        attempts=int(rng.integers(1, 5)),
                    ))
                else:
                    events.append(FaultEvent(
                        kind, rank=rank, time=t,
                        factor=float(rng.uniform(1.5, 8.0)),
                        duration=float(rng.uniform(0.1, 0.5)) * max(horizon, 1e-6),
                    ))
            else:
                events.append(FaultEvent(
                    kind, rank=rank,
                    iteration=int(rng.integers(1, max_iterations + 1)),
                    seed=ev_seed,
                ))
        return cls(events=tuple(events), seed=seed)


# ------------------------------------------------------------------------- injector
class FaultInjector:
    """Runtime state of one fault plan, shared by a cluster's ranks.

    The injector is consulted from two hooks:

    * ``Communicator._fault_entry`` at every collective entry (model
      time = the barrier entry instant): activates due time-triggered
      events, detects dead participants, drives transient retries and
      returns the link-slowdown multiplier;
    * the solver's per-iteration poll (:meth:`crash_for` /
      :meth:`corruptions_for` / :meth:`dead_among`).

    Every consumption appends to :attr:`log`, giving a deterministic
    fault/recovery *trajectory* that tests compare across execution
    configurations bit-for-bit.
    """

    def __init__(self, plan: FaultPlan, n_ranks: int, *,
                 max_retries: int = 3, backoff_base: float = 2e-3):
        self.plan = plan
        self.n_ranks = int(n_ranks)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        # time-triggered queues, ascending by trigger time
        self._deaths = sorted(plan.of_kind(FaultKind.RANK_DEATH),
                              key=lambda e: e.time)
        self._transients = sorted(plan.of_kind(FaultKind.COLLECTIVE_TRANSIENT),
                                  key=lambda e: e.time)
        self._slowdowns = sorted(plan.of_kind(FaultKind.LINK_SLOWDOWN),
                                 key=lambda e: e.time)
        # iteration-triggered queues, ascending by iteration
        self._corruptions = sorted(plan.of_kind(FaultKind.BIT_CORRUPTION),
                                   key=lambda e: e.iteration)
        self._crashes = sorted(plan.of_kind(FaultKind.KERNEL_CRASH),
                               key=lambda e: e.iteration)
        #: rank ids whose death event has fired
        self.dead: set[int] = set()
        #: armed slowdown windows: (start, end, rank, factor)
        self._active_slow: list[tuple[float, float, int, float]] = []
        #: deterministic trajectory of fired/handled events
        self.log: list[tuple] = []
        #: bookkeeping surfaced on ChaseResult
        self.recoveries = 0
        self.checkpoints = 0

    # -- shared ---------------------------------------------------------------
    def note(self, *entry) -> None:
        """Append one trajectory record (deterministic across configs)."""
        self.log.append(tuple(entry))

    def poll(self, now: float) -> None:
        """Activate every time-triggered event due at model time ``now``."""
        while self._deaths and self._deaths[0].time <= now:
            ev = self._deaths.pop(0)
            if ev.rank not in self.dead:
                self.dead.add(ev.rank)
                self.note("death", ev.rank)
        while self._slowdowns and self._slowdowns[0].time <= now:
            ev = self._slowdowns.pop(0)
            self._active_slow.append(
                (ev.time, ev.time + ev.duration, ev.rank, ev.factor)
            )
            self.note("slowdown", ev.rank, ev.factor)

    # -- communicator hooks ------------------------------------------------------
    def dead_among(self, ranks) -> tuple[int, ...]:
        """Dead rank ids among ``ranks`` (RankContext objects)."""
        return tuple(sorted(r.rank_id for r in ranks if r.rank_id in self.dead))

    def transient_attempts(self, ranks, now: float) -> tuple[int, int]:
        """Consume one due transient targeting a participant.

        Returns ``(failed_attempts, target_rank)`` — ``(0, -1)`` when no
        transient is due for this collective.
        """
        ids = {r.rank_id for r in ranks}
        for idx, ev in enumerate(self._transients):
            if ev.time > now:
                break
            if ev.rank in ids:
                self._transients.pop(idx)
                self.note("transient", ev.rank, ev.attempts)
                return ev.attempts, ev.rank
        return 0, -1

    def comm_factor(self, ranks, now: float) -> float:
        """Largest active link-slowdown multiplier touching ``ranks``."""
        if not self._active_slow:
            return 1.0
        ids = {r.rank_id for r in ranks}
        factor = 1.0
        for start, end, rank, f in self._active_slow:
            if rank in ids and start <= now <= end:
                factor = max(factor, f)
        return factor

    # -- solver hooks ---------------------------------------------------------------
    def corruptions_for(self, iteration: int) -> list[FaultEvent]:
        """Consume the BIT_CORRUPTION events due at ``iteration``."""
        due = []
        while self._corruptions and self._corruptions[0].iteration <= iteration:
            ev = self._corruptions.pop(0)
            due.append(ev)
            self.note("corruption", ev.rank, ev.iteration)
        return due

    def crash_for(self, iteration: int) -> FaultEvent | None:
        """Consume the next KERNEL_CRASH event due at ``iteration``."""
        if self._crashes and self._crashes[0].iteration <= iteration:
            ev = self._crashes.pop(0)
            self.note("kernel_crash", ev.rank, ev.iteration)
            return ev
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector({len(self.plan)} events, "
            f"dead={sorted(self.dead)}, recoveries={self.recoveries})"
        )
