"""Property-based harness for the service layer (DESIGN.md §5i).

The scheduler invariants are driven by hypothesis with a deterministic
stub runner (no numerics): terminal-state totality, FIFO within equal
priority, bounded priority inversion, no shard oversubscription, no
tenant starvation under quotas, sequence ordering, deadline shedding.
The end-to-end and fault-isolation tests then run the real
:class:`~repro.core.ChaseSolver` path through :class:`EigenService`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import (
    EigenService,
    JobState,
    JobStateError,
    QueueFullError,
    QuotaExceededError,
    RunOutcome,
    Scheduler,
    SolveJob,
    partition_ranks,
    scf_sequence,
)
from repro.service.jobs import JobRecord

_settings = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: jobs for the stub scheduler never touch their matrix — share one
_H4 = np.zeros((4, 4))


def _stub_job(**kw) -> SolveJob:
    kw.setdefault("nev", 1)
    kw.setdefault("nex", 1)
    return SolveJob(H=_H4, **kw)


def _stub_runner(durations):
    """Deterministic runner: duration per job_id, no numerics."""

    def run(job, shard, start_time):
        return RunOutcome(duration=durations[job.job_id])

    return run


#: one abstract job for the property suite
_job_descr = st.fixed_dictionaries({
    "tenant": st.sampled_from(["alice", "bob", "carol"]),
    "priority": st.integers(0, 3),
    "duration": st.floats(1e-3, 1.0, allow_nan=False, allow_infinity=False),
    "submit_time": st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    "seq": st.sampled_from([None, None, "s1", "s2"]),
})
_workloads = st.lists(_job_descr, min_size=1, max_size=12)
_n_shards = st.integers(1, 3)


def _build(descrs, n_shards, **sched_kw):
    """A scheduler over stub jobs built from hypothesis descriptors."""
    durations = {}
    sched = None
    jobs = []
    seq_steps = {}
    for d in descrs:
        step = 0
        if d["seq"] is not None:
            step = seq_steps.get(d["seq"], 0)
            seq_steps[d["seq"]] = step + 1
        job = _stub_job(tenant=d["tenant"], priority=d["priority"],
                        sequence_id=d["seq"], step=step)
        durations[job.job_id] = d["duration"]
        jobs.append((job, d["submit_time"]))
    sched = Scheduler(partition_ranks(6, n_shards),
                      runner=_stub_runner(durations), **sched_kw)
    for job, t in jobs:
        sched.submit(job, t)
    return sched


class TestSchedulerProperties:
    @_settings
    @given(descrs=_workloads, n_shards=_n_shards)
    def test_terminal_state_totality(self, descrs, n_shards):
        """Every admitted job reaches exactly one terminal state, with a
        consistent scheduling record — no silent drops, no resurrection."""
        recs = _build(descrs, n_shards).run()
        assert len(recs) == len(descrs)
        for r in recs:
            assert r.state.terminal
            if r.state in (JobState.DONE, JobState.FAILED):
                assert r.shard is not None
                assert r.start_time is not None
                assert r.finish_time is not None
                assert r.finish_time >= r.start_time
                assert r.queue_wait is not None and r.queue_wait >= -1e-12
            else:  # CANCELLED records say why
                assert r.error

    @_settings
    @given(descrs=_workloads, n_shards=_n_shards)
    def test_no_shard_oversubscription(self, descrs, n_shards):
        """Jobs on one shard never overlap in modeled time (each job
        owns its whole shard for its duration)."""
        recs = _build(descrs, n_shards).run()
        by_shard = {}
        for r in recs:
            if r.start_time is not None:
                by_shard.setdefault(r.shard, []).append(r)
        for shard_recs in by_shard.values():
            shard_recs.sort(key=lambda r: r.start_time)
            for a, b in zip(shard_recs, shard_recs[1:]):
                assert a.finish_time <= b.start_time + 1e-12

    @_settings
    @given(descrs=_workloads, n_shards=_n_shards)
    def test_bounded_priority_inversion(self, descrs, n_shards):
        """A job never starts while a strictly higher-priority,
        dependency-free job was already submitted and still waiting —
        the only inversion is a job that was already running."""
        recs = _build(descrs, n_shards).run()
        started = [r for r in recs if r.start_time is not None]
        for low in started:
            for high in started:
                if high.job.priority <= low.job.priority:
                    continue
                if high.job.sequence_id is not None:
                    continue  # may have been legally held by its dependency
                # high was waiting when low started => violation
                assert not (high.submit_time <= low.start_time + 1e-12
                            and high.start_time > low.start_time + 1e-12), (
                    f"{low.job.job_id} (prio {low.job.priority}) started at "
                    f"{low.start_time} while {high.job.job_id} "
                    f"(prio {high.job.priority}) was waiting"
                )

    @_settings
    @given(descrs=_workloads, n_shards=_n_shards)
    def test_fifo_within_equal_priority(self, descrs, n_shards):
        """Equal-priority, dependency-free jobs submitted at the same
        time start in submission order."""
        recs = _build(
            [{**d, "submit_time": 0.0, "seq": None} for d in descrs],
            n_shards,
        ).run()
        started = [r for r in recs if r.start_time is not None]
        for a in started:
            for b in started:
                if a.job.priority == b.job.priority \
                        and a.submit_index < b.submit_index:
                    assert a.start_time <= b.start_time + 1e-12

    @_settings
    @given(descrs=_workloads, n_shards=_n_shards)
    def test_sequence_steps_run_in_order(self, descrs, n_shards):
        """Step k of a sequence never starts before step k-1 finished."""
        recs = _build(descrs, n_shards).run()
        by_seq = {}
        for r in recs:
            if r.job.sequence_id is not None:
                by_seq.setdefault(r.job.sequence_id, []).append(r)
        for seq_recs in by_seq.values():
            seq_recs.sort(key=lambda r: r.job.step)
            for prev, nxt in zip(seq_recs, seq_recs[1:]):
                if nxt.start_time is None:
                    continue
                assert prev.state.terminal
                if prev.finish_time is not None:
                    assert nxt.start_time >= prev.finish_time - 1e-12

    @_settings
    @given(descrs=_workloads, n_shards=_n_shards, quota=st.integers(1, 3))
    def test_no_tenant_starvation_under_quota(self, descrs, n_shards, quota):
        """With per-tenant quotas, every *admitted* job still completes,
        and one tenant filling its quota never blocks another tenant's
        admission."""
        durations = {}
        sched = Scheduler(partition_ranks(6, n_shards),
                          runner=_stub_runner(durations), quota=quota)
        admitted = 0
        for i, d in enumerate(descrs):
            job = _stub_job(tenant=d["tenant"], priority=d["priority"])
            durations[job.job_id] = d["duration"]
            try:
                sched.submit(job, d["submit_time"])
                admitted += 1
            except QuotaExceededError:
                # the quota is per-tenant: a fresh tenant must still fit
                probe = _stub_job(tenant=f"probe-{i}")
                durations[probe.job_id] = 0.01
                sched.submit(probe, d["submit_time"])
                admitted += 1
        recs = sched.run()
        assert len(recs) == admitted
        assert all(r.state.terminal for r in recs)
        done_tenants = {r.job.tenant for r in recs if r.state is JobState.DONE}
        assert {r.job.tenant for r in recs} == done_tenants


class TestAdmissionAndLifecycle:
    def test_queue_full_is_typed(self):
        sched = Scheduler(partition_ranks(4, 2),
                          runner=_stub_runner({}), max_queue=2)
        sched.submit(_stub_job())
        sched.submit(_stub_job())
        with pytest.raises(QueueFullError):
            sched.submit(_stub_job())

    def test_quota_is_typed_and_per_tenant(self):
        sched = Scheduler(partition_ranks(4, 2),
                          runner=_stub_runner({}), quota=1)
        sched.submit(_stub_job(tenant="alice"))
        with pytest.raises(QuotaExceededError):
            sched.submit(_stub_job(tenant="alice"))
        sched.submit(_stub_job(tenant="bob"))  # other tenants unaffected

    def test_illegal_transitions_raise(self):
        rec = JobRecord(job=_stub_job(), submit_index=0)
        with pytest.raises(JobStateError):
            rec.transition(JobState.DONE)  # PENDING -> DONE skips RUNNING
        rec.transition(JobState.SCHEDULED)
        rec.transition(JobState.RUNNING)
        rec.transition(JobState.DONE)
        with pytest.raises(JobStateError):
            rec.transition(JobState.RUNNING)  # no resurrection

    def test_duplicate_job_id_rejected(self):
        sched = Scheduler(partition_ranks(4, 2), runner=_stub_runner({}))
        job = _stub_job()
        sched.submit(job)
        with pytest.raises(ValueError, match="duplicate"):
            sched.submit(job)

    def test_deadline_shedding_is_typed_cancellation(self):
        durations = {}
        sched = Scheduler(partition_ranks(4, 1),
                          runner=_stub_runner(durations))
        blocker = _stub_job()
        durations[blocker.job_id] = 5.0
        late = _stub_job(deadline=1.0)
        durations[late.job_id] = 1.0
        sched.submit(blocker)
        sched.submit(late)
        recs = sched.run()
        assert recs[0].state is JobState.DONE
        assert recs[1].state is JobState.CANCELLED
        assert "deadline" in recs[1].error

    def test_runner_crash_isolates_to_one_job(self):
        def runner(job, shard, t):
            if job.tenant == "crash":
                raise RuntimeError("boom")
            return RunOutcome(duration=0.5)

        sched = Scheduler(partition_ranks(4, 1), runner=runner)
        sched.submit(_stub_job(tenant="crash"))
        sched.submit(_stub_job(tenant="fine"))
        recs = sched.run()
        assert recs[0].state is JobState.FAILED
        assert "boom" in recs[0].error
        assert recs[1].state is JobState.DONE

    def test_partition_is_disjoint_and_total(self):
        shards = partition_ranks(10, 3)
        ranks = [r for s in shards for r in s.ranks]
        assert sorted(ranks) == list(range(10))
        assert len(set(ranks)) == 10
        assert all(s.n_ranks >= 1 for s in shards)
        with pytest.raises(ValueError):
            partition_ranks(2, 3)

    def test_job_spec_validation(self):
        with pytest.raises(ValueError, match="square"):
            SolveJob(H=np.zeros((3, 4)), nev=1, nex=1)
        with pytest.raises(ValueError, match="sequence_id"):
            SolveJob(H=_H4, nev=1, nex=1, step=2)
        with pytest.raises(ValueError, match="exceeds"):
            SolveJob(H=_H4, nev=3, nex=3)


class TestEigenServiceEndToEnd:
    def test_sequence_warm_start_and_correctness(self):
        """A 2-step sequence plus a cold tenant: everything converges to
        the right eigenvalues, and step 1 is a warm hit that costs fewer
        filter MatVecs and iterations than its cold anchor."""
        hams = scf_sequence(160, 2, seed=3)
        svc = EigenService(total_ranks=8, n_shards=2, tune="off")
        for k, H in enumerate(hams):
            svc.submit(SolveJob(H=H, nev=20, nex=10, sequence_id="scf",
                                step=k, seed=7, tenant="alice"))
        svc.submit(SolveJob(H=hams[0], nev=12, nex=6, tenant="bob",
                            priority=1, seed=9))
        results = svc.run()
        assert all(r.state is JobState.DONE and r.converged for r in results)
        for r in results:
            H = hams[r.step] if r.sequence_id else hams[0]
            ref = np.linalg.eigvalsh(H)[: len(r.eigenvalues)]
            np.testing.assert_allclose(r.eigenvalues, ref, atol=1e-8)
        step0, step1 = results[0], results[1]
        assert step0.warmstart == "miss:absent"
        assert step1.warm_hit
        assert step1.iterations <= step0.iterations
        assert step1.iterations_saved >= 1
        assert step1.filter_matvecs < step0.filter_matvecs
        assert results[2].warmstart == "cold"

    def test_fault_isolation_across_jobs(self):
        """A rank-death fault plan on one job triggers §5f recovery
        inside that job only: the other jobs' eigenvalues and CommStats
        are bit-identical to runs without the faulty neighbour."""
        hams = scf_sequence(160, 1, seed=5)
        H = hams[0]
        Hb = scf_sequence(140, 1, seed=6)[0]

        def run_service(with_faulty):
            svc = EigenService(total_ranks=8, n_shards=2, tune="off")
            svc.submit(SolveJob(H=H, nev=20, nex=10, seed=1, tenant="a"))
            if with_faulty:
                # seed 0 -> a random plan containing RANK_DEATH (checked
                # below); horizon 0.02 lands events inside the solve
                svc.submit(SolveJob(H=H, nev=20, nex=10, seed=2, tenant="f",
                                    fault_seed=0, fault_horizon=0.02))
            svc.submit(SolveJob(H=Hb, nev=16, nex=8, seed=3, tenant="b"))
            return svc.run()

        from repro.runtime.faults import FaultKind, FaultPlan

        plan = FaultPlan.random(0, 4, horizon=0.02, n_events=4)
        assert plan.of_kind(FaultKind.RANK_DEATH), "seed 0 must kill a rank"

        with_f = run_service(True)
        without_f = run_service(False)
        faulty = next(r for r in with_f if r.tenant == "f")
        assert faulty.state is JobState.DONE and faulty.converged
        assert faulty.recoveries > 0
        for tenant in ("a", "b"):
            a = next(r for r in with_f if r.tenant == tenant)
            b = next(r for r in without_f if r.tenant == tenant)
            assert a.state is JobState.DONE and a.converged
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.residual_norms, b.residual_norms)
            assert a.comm_stats == b.comm_stats
            assert a.recoveries == 0

    def test_admission_backpressure_through_service(self):
        H = scf_sequence(40, 1, seed=1)[0]
        svc = EigenService(total_ranks=4, n_shards=2, max_queue=2, quota=1)
        svc.submit(SolveJob(H=H, nev=4, nex=2, tenant="a"))
        with pytest.raises(QuotaExceededError):
            svc.submit(SolveJob(H=H, nev=4, nex=2, tenant="a"))
        svc.submit(SolveJob(H=H, nev=4, nex=2, tenant="b"))
        with pytest.raises(QueueFullError):
            svc.submit(SolveJob(H=H, nev=4, nex=2, tenant="c"))
