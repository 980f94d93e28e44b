"""Shard scheduler: packing admitted jobs onto cluster partitions.

The virtual cluster's rank budget is partitioned into disjoint
:class:`Shard`\\ s (contiguous rank ranges — the NUMA-friendly layout a
real deployment would use).  The :class:`Scheduler` runs a
discrete-event loop over modeled service time:

* **admission** — ``submit()`` enforces the bounded queue
  (:class:`QueueFullError`) and per-tenant in-flight quotas
  (:class:`QuotaExceededError`); an admitted job is *guaranteed* a
  terminal state — no silent drops (property-tested in
  ``tests/test_service.py``);
* **packing** — whenever a shard frees, the globally highest-priority
  runnable job starts (FIFO within equal priority, by submission
  index).  A job can therefore only be passed over by strictly
  higher-priority work or by jobs that were already running — bounded
  priority inversion;
* **sequences** — step ``k`` of a sequence becomes runnable only when
  step ``k-1`` is terminal (the warm-start cache carries the subspace
  between them);
* **deadlines** — a job whose turn arrives after its deadline is
  CANCELLED (typed, recorded), freeing its slot immediately.

Execution is delegated to a ``runner`` callable — the property suite
substitutes a deterministic stub; :class:`~repro.service.EigenService`
wires the real :class:`~repro.core.ChaseSolver` path.  The runner
returns a :class:`RunOutcome` whose ``duration`` is the job's modeled
makespan; the scheduler advances the shard's clock by exactly that, so
queue waits and throughput are honest model time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service.jobs import (
    JobRecord,
    JobState,
    QueueFullError,
    QuotaExceededError,
    SolveJob,
)

__all__ = ["Shard", "partition_ranks", "RunOutcome", "Scheduler"]


@dataclass(frozen=True)
class Shard:
    """A disjoint slice of the virtual cluster's rank budget."""

    index: int
    ranks: tuple[int, ...]

    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Shard({self.index}: ranks {self.ranks[0]}..{self.ranks[-1]})"


def partition_ranks(total_ranks: int, n_shards: int) -> tuple[Shard, ...]:
    """Partition ``total_ranks`` into ``n_shards`` contiguous, disjoint,
    near-equal shards (larger shards first); every rank belongs to
    exactly one shard, so concurrent jobs can never share a rank."""
    if total_ranks < 1:
        raise ValueError("need at least one rank")
    if not 1 <= n_shards <= total_ranks:
        raise ValueError(
            f"n_shards must be in [1, {total_ranks}], got {n_shards}"
        )
    base, extra = divmod(total_ranks, n_shards)
    shards = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        shards.append(Shard(i, tuple(range(start, start + size))))
        start += size
    return tuple(shards)


@dataclass
class RunOutcome:
    """What a runner reports back for one job.

    ``duration`` is the job's modeled wall time on its shard (the shard
    clock advances by it even for failed jobs — a crashed solve occupied
    the shard until it crashed).  ``error`` marks the job FAILED.
    ``payload`` is stashed on the record for result assembly.
    """

    duration: float
    payload: dict[str, Any] = field(default_factory=dict)
    error: str | None = None


class Scheduler:
    """Discrete-event packing of admitted jobs onto shards.

    Parameters
    ----------
    shards:
        The cluster partition (see :func:`partition_ranks`).
    runner:
        ``runner(job, shard, start_time) -> RunOutcome``.  Exceptions
        are caught and recorded as FAILED (typed in ``record.error``) —
        one job's crash never takes down the service loop.
    quota:
        Per-tenant cap on non-terminal (in-flight) jobs; ``None`` means
        unlimited.
    max_queue:
        Bound on total non-terminal jobs (backpressure).
    """

    def __init__(
        self,
        shards: tuple[Shard, ...],
        *,
        runner: Callable[[SolveJob, Shard, float], RunOutcome],
        quota: int | None = None,
        max_queue: int = 64,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        seen: set[int] = set()
        for s in shards:
            overlap = seen.intersection(s.ranks)
            if overlap:
                raise ValueError(f"shards overlap on ranks {sorted(overlap)}")
            seen.update(s.ranks)
        if quota is not None and quota < 1:
            raise ValueError("quota must be >= 1 (or None)")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.shards = tuple(shards)
        self.runner = runner
        self.quota = quota
        self.max_queue = max_queue
        self.records: list[JobRecord] = []
        self._by_id: dict[str, JobRecord] = {}

    # ---------------------------------------------------------- admission
    def _in_flight(self, tenant: str | None = None) -> int:
        return sum(
            1 for r in self.records
            if not r.state.terminal
            and (tenant is None or r.job.tenant == tenant)
        )

    def submit(self, job: SolveJob, submit_time: float = 0.0) -> JobRecord:
        """Admit ``job`` at ``submit_time`` (modeled service seconds).

        Raises :class:`QueueFullError` / :class:`QuotaExceededError` on
        backpressure; an admitted job always reaches a terminal state.
        """
        if job.job_id in self._by_id:
            raise ValueError(f"duplicate job_id {job.job_id!r}")
        if submit_time < 0:
            raise ValueError("submit_time must be >= 0")
        if self._in_flight() >= self.max_queue:
            raise QueueFullError(
                f"queue full ({self.max_queue} jobs in flight)"
            )
        if self.quota is not None and \
                self._in_flight(job.tenant) >= self.quota:
            raise QuotaExceededError(
                f"tenant {job.tenant!r} is at its quota of {self.quota} "
                f"in-flight jobs"
            )
        rec = JobRecord(
            job=job, submit_index=len(self.records),
            submit_time=float(submit_time),
        )
        self.records.append(rec)
        self._by_id[job.job_id] = rec
        return rec

    # ---------------------------------------------------------- the loop
    def _dep_record(self, rec: JobRecord) -> JobRecord | None:
        """The record of the previous sequence step, if it was admitted."""
        job = rec.job
        if job.sequence_id is None or job.step == 0:
            return None
        best = None
        for other in self.records:
            if other is rec:
                continue
            if other.job.sequence_id == job.sequence_id \
                    and other.job.step == job.step - 1:
                best = other
        return best

    def _ready_time(self, rec: JobRecord) -> float:
        """Earliest modeled time ``rec`` could start (inf while its
        sequence predecessor has not finished)."""
        dep = self._dep_record(rec)
        if dep is None:
            return rec.submit_time
        if not dep.state.terminal:
            return float("inf")
        return max(rec.submit_time, dep.finish_time or dep.submit_time)

    def run(self) -> list[JobRecord]:
        """Drain the queue: run every admitted job to a terminal state.

        Deterministic given the same submissions and runner; returns the
        records in submission order.
        """
        shard_free = {s.index: 0.0 for s in self.shards}
        while True:
            pending = [r for r in self.records if r.state is JobState.PENDING]
            if not pending:
                break
            # the shard that frees first makes the next decision
            s_idx = min(shard_free, key=lambda i: (shard_free[i], i))
            t = shard_free[s_idx]
            ready = [r for r in pending if self._ready_time(r) <= t]
            if not ready:
                # advance this shard's clock to the next arrival /
                # dependency release (every pending job's predecessor
                # is strictly earlier in sequence order, so some job
                # always has a finite ready time — no deadlock)
                t_next = min(self._ready_time(r) for r in pending)
                assert t_next != float("inf"), "dependency cycle"
                shard_free[s_idx] = max(t, t_next)
                continue
            # deadline shedding: a job whose turn arrives too late is
            # CANCELLED (typed terminal state, never a silent drop)
            expired = [
                r for r in ready
                if r.job.deadline is not None and t > r.job.deadline
            ]
            if expired:
                for r in expired:
                    r.transition(JobState.CANCELLED)
                    r.error = (
                        f"deadline {r.job.deadline:g}s passed before "
                        f"start (t={t:g}s)"
                    )
                continue
            # pack: highest priority first, FIFO within equal priority
            rec = min(ready, key=lambda r: (-r.job.priority, r.submit_index))
            shard = self.shards[s_idx]
            rec.transition(JobState.SCHEDULED)
            rec.shard = s_idx
            rec.start_time = t
            rec.transition(JobState.RUNNING)
            try:
                outcome = self.runner(rec.job, shard, t)
            except Exception as exc:  # noqa: BLE001 — isolate job crashes
                outcome = RunOutcome(
                    duration=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            duration = max(float(outcome.duration), 0.0)
            rec.finish_time = t + duration
            shard_free[s_idx] = rec.finish_time
            rec.payload = outcome.payload
            if outcome.error is not None:
                rec.error = outcome.error
                rec.transition(JobState.FAILED)
            else:
                rec.transition(JobState.DONE)
        return list(self.records)
