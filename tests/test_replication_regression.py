"""Modeled-cost regression: numeric dedup must not perturb the model.

The replication-group execution layer changes *what the host process
computes* (each unique block once), never *what the simulated machine is
charged*: per-rank kernel charges, staging, collective orderings and
byte counts are issued in exactly the seed order.  A fixed scenario must
therefore produce **bit-identical** modeled makespans, per-phase
breakdowns and communicator statistics with the dedup layer on and off
— across both solver schemes and all three communication backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chase import ChaseSolver
from repro.core.config import ChaseConfig
from repro.distributed import DistributedHermitian
from repro.runtime import (
    CommBackend,
    ExecutionConfig,
    FaultEvent,
    FaultKind,
    FaultPlan,
    Grid2D,
    VirtualCluster,
)

N, NEV, NEX = 200, 25, 15


def scenario_matrix(dtype):
    rng = np.random.default_rng(31415)
    A = rng.standard_normal((N, N))
    if np.dtype(dtype).kind == "c":
        A = A + 1j * rng.standard_normal((N, N))
    return ((A + A.conj().T) / 2).astype(dtype)


def run_scenario(dedup: bool, scheme: str, backend: CommBackend, dtype,
                 solver_kw: dict | None = None, **execution):
    """One fixed solve on a fresh cluster; returns all modeled outputs.

    ``execution`` — further :class:`ExecutionConfig` fields."""
    H = scenario_matrix(dtype)
    cluster = VirtualCluster(
        4, backend=backend,
        config=ExecutionConfig(numeric_dedup=dedup, **execution))
    grid = Grid2D(cluster, 2, 2)
    Hd = DistributedHermitian.from_dense(grid, H)
    solver = ChaseSolver(
        grid, Hd, ChaseConfig(nev=NEV, nex=NEX), scheme=scheme,
        **(solver_kw or {})
    )
    res = solver.solve(rng=np.random.default_rng(2718), return_vectors=True)
    # the solver's grid survives a mid-solve shrink; the entry grid
    # would hold stale communicators after a rank death
    grid = solver.grid
    comm_stats = []
    for j in range(grid.q):
        s = grid.col_comm(j).stats
        comm_stats.append(("col", j, s.collectives, s.messages, s.bytes_moved))
    for i in range(grid.p):
        s = grid.row_comm(i).stats
        comm_stats.append(("row", i, s.collectives, s.messages, s.bytes_moved))
    timings = {
        phase: (b.compute, b.comm, b.datamove, b.recovery)
        for phase, b in res.timings.items()
    }
    clocks = [r.clock.now for r in grid.cluster.ranks]
    return res, comm_stats, timings, clocks


@pytest.mark.parametrize(
    "backend", [CommBackend.NCCL, CommBackend.MPI_STAGED, CommBackend.MPI_HOST]
)
@pytest.mark.parametrize("scheme", ["new", "lms"])
def test_model_bit_identical_with_and_without_dedup(scheme, backend):
    r1, s1, t1, c1 = run_scenario(True, scheme, backend, np.float64)
    r0, s0, t0, c0 = run_scenario(False, scheme, backend, np.float64)

    # convergence path identical (same iterations, same decisions)
    assert r1.converged and r0.converged
    assert r1.iterations == r0.iterations
    np.testing.assert_array_equal(r1.eigenvalues, r0.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r0.eigenvectors)

    # modeled time: makespan and every rank clock, bit-for-bit
    assert r1.makespan == r0.makespan
    assert c1 == c0

    # per-phase breakdown totals, bit-for-bit
    assert set(t1) == set(t0)
    for phase in t1:
        assert t1[phase] == t0[phase], f"phase {phase!r} drifted"

    # communicator statistics: collectives / messages / bytes
    assert s1 == s0


@pytest.mark.parametrize("scheme", ["new", "lms"])
def test_model_bit_identical_complex(scheme):
    """Complex path exercises the cached-conjugate HEMM operands."""
    r1, s1, t1, c1 = run_scenario(True, scheme, CommBackend.NCCL, np.complex128)
    r0, s0, t0, c0 = run_scenario(False, scheme, CommBackend.NCCL, np.complex128)
    np.testing.assert_array_equal(r1.eigenvalues, r0.eigenvalues)
    assert r1.makespan == r0.makespan
    assert c1 == c0
    assert t1 == t0
    assert s1 == s0


# ------------------------------------------------------------------ faults
# The fault subsystem (DESIGN.md §5f) must be invisible when disabled and
# tier-invariant when enabled: the same fault plan must produce the same
# deterministic recovery trajectory on every tier whose modeled charges
# are bit-identical, and the same *solver-level* trajectory on the fused
# tier, whose numerics match only to rounding.

#: (dedup, fused) — one representative per tier
FAULT_TIERS = [
    (False, False),
    (True, False),
    (True, True),
]


def _run_tier(dedup, fused, solver_kw=None):
    return run_scenario(
        dedup, "new", CommBackend.NCCL, np.float64, solver_kw=solver_kw,
        hemm_fusion=fused)


@pytest.mark.parametrize("tier", FAULT_TIERS, ids=["seed", "dedup", "fused"])
def test_faults_disabled_bit_identical_on_every_tier(tier):
    """Constructing the solver with the fault machinery explicitly off
    must be bit-identical to the plain constructor on all three tiers:
    the hooks short-circuit without touching numerics or charges."""
    r0, s0, t0, c0 = _run_tier(*tier)
    r1, s1, t1, c1 = _run_tier(
        *tier, solver_kw=dict(faults=None, checkpoint_every=0))
    np.testing.assert_array_equal(r1.eigenvalues, r0.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r0.eigenvectors)
    assert r1.iterations == r0.iterations
    assert r1.makespan == r0.makespan
    assert c1 == c0 and s1 == s0 and t1 == t0
    assert r1.recoveries == 0 and r1.checkpoints == 0
    assert r1.fault_log == [] and "Recovery" not in t1


def _scenario_fault_plan(makespan: float) -> FaultPlan:
    """Slowdown (time-keyed) + corruption + crash (iteration-keyed).

    The fault-free scenario converges in two outer iterations, so both
    iteration-keyed events land inside the run and the kernel crash
    forces at least one checkpoint recovery."""
    return FaultPlan(events=(
        FaultEvent(FaultKind.LINK_SLOWDOWN, rank=2, time=0.35 * makespan,
                   factor=3.0, duration=0.2 * makespan),
        FaultEvent(FaultKind.BIT_CORRUPTION, rank=1, iteration=1, seed=77),
        FaultEvent(FaultKind.KERNEL_CRASH, rank=3, iteration=2),
    ))


def test_fault_trajectory_bit_identical_with_and_without_dedup():
    """Dedup on/off are charge-identical tiers, so even time-keyed fault
    events fire at the same collectives: the full recovery trajectory —
    eigenvalues, fault log, checkpoints, makespan, clocks, comm stats —
    must be bit-identical."""
    base, _, _, _ = run_scenario(True, "new", CommBackend.NCCL, np.float64)
    plan = _scenario_fault_plan(base.makespan)
    r1, s1, t1, c1 = run_scenario(True, "new", CommBackend.NCCL, np.float64,
                                  solver_kw=dict(faults=plan))
    r0, s0, t0, c0 = run_scenario(False, "new", CommBackend.NCCL, np.float64,
                                  solver_kw=dict(faults=plan))
    assert r1.converged and r0.converged
    assert r1.fault_log == r0.fault_log and r1.fault_log != []
    assert r1.recoveries == r0.recoveries >= 1
    assert r1.checkpoints == r0.checkpoints >= 1
    np.testing.assert_array_equal(r1.eigenvalues, r0.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r0.eigenvectors)
    assert r1.makespan == r0.makespan
    assert c1 == c0 and s1 == s0 and t1 == t0
    assert t1["Recovery"] == t0["Recovery"]


@pytest.mark.parametrize("tier", [FAULT_TIERS[2]], ids=["fused"])
def test_iteration_keyed_faults_tier_invariant(tier):
    """A tier whose numerics differ from dedup's replays an
    iteration-keyed plan exactly as the dedup tier does: same
    solver-level trajectory and CommStats; eigenvalues agree to roundoff
    (panel fusion reorders the accumulation)."""
    plan = FaultPlan(events=(
        FaultEvent(FaultKind.BIT_CORRUPTION, rank=1, iteration=1, seed=77),
        FaultEvent(FaultKind.KERNEL_CRASH, rank=3, iteration=2),
    ))
    r0, s0, _, _ = _run_tier(*FAULT_TIERS[1], solver_kw=dict(faults=plan))
    r1, s1, _, _ = _run_tier(*tier, solver_kw=dict(faults=plan))
    assert r1.converged and r0.converged
    assert r1.fault_log == r0.fault_log and r1.fault_log != []
    assert r1.recoveries == r0.recoveries >= 1
    assert r1.checkpoints == r0.checkpoints
    assert r1.iterations == r0.iterations
    assert s1 == s0
    np.testing.assert_allclose(
        r1.eigenvalues, r0.eigenvalues, rtol=0, atol=1e-10)
