"""Fault injection and recovery (DESIGN.md §5f).

Unit tests pin the event/plan/injector contracts and every runtime
hook (collective retry, rank death, link slowdown, kernel crash), and
a hypothesis chaos suite drives the solver through randomized seeded
fault schedules asserting the safety property: a solve under any plan
either returns verified eigenpairs or raises a typed ``FaultError`` —
never a hang, never a silently wrong answer.  The same property is
asserted on the fixed plans of ``DIGEST_SEEDS``, whose outcomes
:func:`fault_digest` hashes, so two versions of the source compare the
same fault plans:

    PYTHONPATH=src python -m tests.test_fault_injection
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.chase import ChaseSolver
from repro.core.config import ChaseConfig
from repro.distributed import DistributedHermitian
from repro.runtime import (
    CollectiveError,
    CorruptionError,
    ExecutorFaultError,
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RankDeathError,
    VirtualCluster,
)

from tests.conftest import make_grid

# -- fixed chaos problem ------------------------------------------------------------

N, NEV, NEX = 96, 10, 6
CFG = ChaseConfig(nev=NEV, nex=NEX, tol=1e-9, max_iter=40)


def _matrix() -> np.ndarray:
    rng = np.random.default_rng(4242)
    A = rng.standard_normal((N, N))
    return (A + A.T) / 2


HMAT = _matrix()
EV_ORACLE = np.sort(np.linalg.eigvalsh(HMAT))[:NEV]


def _solve(plan: FaultPlan | None, **kw):
    grid = make_grid(4)
    Hd = DistributedHermitian.from_dense(grid, HMAT)
    solver = ChaseSolver(grid, Hd, CFG, faults=plan, **kw)
    return solver, solver.solve(rng=np.random.default_rng(99))


# fault-free baseline, also used to scale the chaos horizon
_BASE_SOLVER, _BASE = _solve(None)
HORIZON = 1.5 * _BASE.makespan


# -- FaultEvent / FaultPlan contracts ----------------------------------------------


def test_event_domain_validation():
    # comm-level kinds are time-keyed, solver-level kinds iteration-keyed
    FaultEvent(kind=FaultKind.RANK_DEATH, rank=1, time=0.1)
    FaultEvent(kind=FaultKind.BIT_CORRUPTION, rank=0, iteration=2)
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.RANK_DEATH, rank=1, iteration=2)
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.BIT_CORRUPTION, rank=0, time=0.1)
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.RANK_DEATH, rank=1)  # neither key
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.RANK_DEATH, rank=1, time=0.1, iteration=1)


def test_random_plan_deterministic_and_death_capped():
    a = FaultPlan.random(11, 4, horizon=0.02, n_events=12)
    b = FaultPlan.random(11, 4, horizon=0.02, n_events=12)
    assert a == b
    deaths = a.of_kind(FaultKind.RANK_DEATH)
    assert len(deaths) <= 3  # never kills the whole 4-rank cluster
    c = FaultPlan.random(12, 4, horizon=0.02, n_events=12)
    assert c != a


@pytest.mark.parametrize("kw,name", [
    (dict(n_events=-2), "n_events"),
    (dict(horizon=0.0), "horizon"),
    (dict(horizon=-1.0), "horizon"),
    (dict(horizon=float("nan")), "horizon"),
    (dict(max_iterations=0), "max_iterations"),
])
def test_random_plan_rejects_bad_arguments(kw, name):
    """A negative event count used to return an empty plan and a negative
    horizon to fail inside NumPy; both name the argument now."""
    with pytest.raises(ValueError, match=name):
        FaultPlan.random(3, 4, **kw)
    assert len(FaultPlan.random(3, 4, n_events=0)) == 0


def test_injector_queues_consume_in_time_order():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.COLLECTIVE_TRANSIENT, rank=1, time=0.02,
                   attempts=2),
        FaultEvent(kind=FaultKind.RANK_DEATH, rank=2, time=0.05),
        FaultEvent(kind=FaultKind.LINK_SLOWDOWN, rank=0, time=0.01,
                   factor=4.0, duration=0.02),
    ))
    inj = FaultInjector(plan, 4)
    ranks = VirtualCluster(4).ranks
    inj.poll(0.005)
    assert inj.dead_among(ranks) == ()
    assert inj.comm_factor(ranks, 0.005) == 1.0
    inj.poll(0.015)  # slowdown window [0.01, 0.03] active
    assert inj.comm_factor(ranks, 0.015) == 4.0
    assert inj.comm_factor(ranks[1:], 0.015) == 1.0  # rank 0 not involved
    assert inj.transient_attempts(ranks, 0.015) == (0, -1)  # not due yet
    assert inj.transient_attempts(ranks, 0.025) == (2, 1)
    assert inj.transient_attempts(ranks, 0.025) == (0, -1)  # consumed
    inj.poll(0.06)
    assert inj.dead_among(ranks) == (2,)
    assert inj.comm_factor(ranks, 0.06) == 1.0  # window expired


# -- runtime hooks ------------------------------------------------------------------


def _comm(n=2, plan=None):
    cluster = VirtualCluster(n)
    if plan is not None:
        cluster.attach_faults(plan)
    from repro.runtime import Communicator

    return cluster, Communicator(cluster.ranks)


def test_communicator_transient_retry_charges_backoff():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.COLLECTIVE_TRANSIENT, rank=0, time=0.0,
                   attempts=2),
    ))
    cluster, comm = _comm(2, plan)
    bufs = [np.ones(4) for _ in range(2)]
    comm.allreduce(bufs)
    np.testing.assert_array_equal(bufs[0], np.full(4, 2.0))
    # two failed attempts charged exponential backoff as RECOVERY
    retries = [e for e in cluster.faults.log if e[0] == "retry"]
    assert len(retries) == 2
    ref_cluster, ref = _comm(2)
    ref_bufs = [np.ones(4) for _ in range(2)]
    ref.allreduce(ref_bufs)
    assert cluster.makespan() > ref_cluster.makespan()


def test_communicator_transient_exhausts_retries():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.COLLECTIVE_TRANSIENT, rank=1, time=0.0,
                   attempts=9),
    ))
    cluster, comm = _comm(2, plan)
    with pytest.raises(CollectiveError) as exc:
        comm.allreduce([np.ones(4) for _ in range(2)])
    assert exc.value.rank == 1


def test_communicator_raises_on_dead_rank():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.RANK_DEATH, rank=1, time=0.0),
    ))
    cluster, comm = _comm(2, plan)
    with pytest.raises(RankDeathError) as exc:
        comm.allreduce([np.ones(4) for _ in range(2)])
    assert exc.value.dead_ranks == (1,)


def test_link_slowdown_scales_collective_time():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.LINK_SLOWDOWN, rank=0, time=0.0,
                   factor=5.0, duration=1.0),
    ))
    slow_cluster, slow = _comm(2, plan)
    ref_cluster, ref = _comm(2)
    slow.allreduce([np.ones(64) for _ in range(2)])
    ref.allreduce([np.ones(64) for _ in range(2)])
    # same data, same stats, strictly more modeled time
    assert slow.stats.as_tuple() == ref.stats.as_tuple()
    assert slow_cluster.makespan() > ref_cluster.makespan()


def test_cluster_shrink_preserves_clocks_and_refuses_total_loss():
    from repro.runtime import RecoveryExhaustedError

    cluster = VirtualCluster(4)
    for r in cluster.ranks:
        r.charge_compute(0.5)
    survivors = cluster.shrink({3})
    assert survivors.n_ranks == 3
    assert all(r.now == 0.5 for r in survivors.ranks)
    assert survivors.tracer is cluster.tracer
    with pytest.raises(RecoveryExhaustedError):
        cluster.shrink({0, 1, 2, 3})


# -- solver-level recovery ----------------------------------------------------------


def _check_result(res):
    assert res.converged
    err = np.max(np.abs(np.sort(res.eigenvalues) - EV_ORACLE))
    # a corruption escape below the spectrum-check slack (~50*tol_abs)
    # is indistinguishable from convergence noise; anything above it
    # must have been caught and recovered
    assert err < 1e-6


def test_rank_death_shrinks_grid_and_converges():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.RANK_DEATH, rank=3,
                   time=0.5 * _BASE.makespan),
    ))
    solver, res = _solve(plan)
    _check_result(res)
    assert res.recoveries >= 1
    assert solver.grid.p * solver.grid.q == 3
    assert any(e[0] == "fault" and e[1] == "RankDeathError"
               for e in res.fault_log)
    assert any(e[0] == "recovered" for e in res.fault_log)


def test_kernel_crash_recovery_is_bit_identical_to_fault_free():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.KERNEL_CRASH, rank=0, iteration=2),
    ))
    _, res = _solve(plan)
    _check_result(res)
    assert res.recoveries == 1
    # the crash fires before the iteration mutates state, so replaying
    # from the end-of-previous-iteration checkpoint is an exact replay
    np.testing.assert_array_equal(res.eigenvalues, _BASE.eigenvalues)
    assert res.makespan > _BASE.makespan  # recovery charged, not free


def test_recovery_exhaustion_is_typed():
    from repro.runtime import RecoveryExhaustedError

    plan = FaultPlan(events=tuple(
        FaultEvent(kind=FaultKind.KERNEL_CRASH, rank=0, iteration=i)
        for i in range(1, 6)
    ))
    grid = make_grid(4)
    Hd = DistributedHermitian.from_dense(grid, HMAT)
    solver = ChaseSolver(grid, Hd, CFG, faults=plan, max_recoveries=2)
    with pytest.raises(RecoveryExhaustedError):
        solver.solve(rng=np.random.default_rng(99))


def test_checkpoint_every_env_knob(monkeypatch):
    """Nothing reads ``REPRO_CHECKPOINT_EVERY``: the checkpoint cadence
    is the solver constructor's argument."""
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "3")
    grid = make_grid(4)
    Hd = DistributedHermitian.from_dense(grid, HMAT)
    assert ChaseSolver(grid, Hd, CFG).checkpoint_every is None
    assert ChaseSolver(grid, Hd, CFG,
                       checkpoint_every=3).checkpoint_every == 3


def test_same_fault_seed_reproduces_trajectory():
    for seed in (1, 5, 17):
        plan = FaultPlan.random(seed, 4, horizon=HORIZON, n_events=5,
                                max_iterations=6)
        try:
            s1, r1 = _solve(plan)
        except FaultError as e:
            with pytest.raises(type(e)):
                _solve(FaultPlan.random(seed, 4, horizon=HORIZON, n_events=5,
                                        max_iterations=6))
            continue
        s2, r2 = _solve(FaultPlan.random(seed, 4, horizon=HORIZON, n_events=5,
                                         max_iterations=6))
        np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)
        assert r1.fault_log == r2.fault_log
        assert r1.makespan == r2.makespan
        assert (r1.recoveries, r1.checkpoints) == (r2.recoveries, r2.checkpoints)
        assert s1.grid.comm_stats() == s2.grid.comm_stats()


# -- chaos suite --------------------------------------------------------------------

#: ``FaultPlan.random`` seeds solved on every run and hashed by
#: :func:`fault_digest`.  Hypothesis draws different examples once the
#: source changes, so these fixed plans are what two versions compare.
DIGEST_SEEDS = (0, 1, 2, 3, 5, 7, 11, 17, 23, 42, 64, 99, 113, 141, 256,
                512, 777, 1024, 2048, 4096, 8191, 16384, 65536, 123456)


def _chaos_solve(seed):
    """The chaos solve of plan ``seed``: ``(solver, outcome)``, the
    outcome being the result or the typed ``FaultError`` raised."""
    plan = FaultPlan.random(seed, 4, horizon=HORIZON, n_events=5,
                            max_iterations=6)
    grid = make_grid(4)
    Hd = DistributedHermitian.from_dense(grid, HMAT)
    solver = ChaseSolver(grid, Hd, CFG, faults=plan, max_recoveries=6)
    try:
        return solver, solver.solve(rng=np.random.default_rng(99))
    except FaultError as exc:
        return solver, exc


def _check_chaos(solver, res):
    """Safety: verified eigenpairs or a typed FaultError — nothing else."""
    if isinstance(res, FaultError):
        return  # a typed, documented failure is an accepted outcome
    _check_result(res)
    # survivors form a consistent grid and the model stayed coherent
    assert solver.grid.p * solver.grid.q >= 1
    assert np.isfinite(res.makespan) and res.makespan > 0
    for levels, legacy in zip(solver.grid.comm_stats_levels(),
                              solver.grid.comm_stats()):
        assert levels[2] + levels[3] == legacy[2]  # byte conservation


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_chaos_any_schedule_is_safe(seed):
    """The safety property (:func:`_check_chaos`) under drawn plans."""
    _check_chaos(*_chaos_solve(seed))


@pytest.mark.parametrize("seed", DIGEST_SEEDS)
def test_chaos_digest_plan_is_safe(seed):
    """The safety property under the fixed plans :func:`fault_digest`
    hashes."""
    _check_chaos(*_chaos_solve(seed))


def fault_digest() -> str:
    """SHA-256 over the outcomes of the ``DIGEST_SEEDS`` plans: per
    plan, the typed error's class name, or the fault log, recoveries,
    checkpoints, iterations, exact makespan and the eigenvalues to 10
    significant digits."""
    digest = hashlib.sha256()
    for seed in DIGEST_SEEDS:
        _solver, res = _chaos_solve(seed)
        if isinstance(res, FaultError):
            record = (seed, type(res).__name__)
        else:
            record = (seed, res.fault_log, res.recoveries, res.checkpoints,
                      res.iterations, res.makespan.hex(),
                      [f"{v:.9e}" for v in res.eigenvalues])
        digest.update(repr(record).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(fault_digest())
