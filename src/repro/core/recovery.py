"""Fault tolerance of the distributed solver (DESIGN.md §5f).

Checkpoint, restore and shrink-to-survivors, the iteration-start fault
poll, and the acceptance checks (locked-residual re-check, verification
Lanczos, LDL^T inertia count) that keep a corrupted run from returning
silently wrong eigenpairs.  Every function takes the
:class:`~repro.core.chase.ChaseSolver` whose state it reads or rebuilds;
every retry, checkpoint and re-layout is charged as RECOVERY.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.lanczos import lanczos_ritz
from repro.core.residuals import residuals
from repro.core.trace import ConvergenceTrace
from repro.distributed.hemm import DistributedHemm
from repro.distributed.hermitian import DistributedHermitian
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.distributed.redistribute import redistribute_c_to_b
from repro.runtime.faults import (
    CHECKPOINT_BANDWIDTH,
    CHECKPOINT_LATENCY,
    CorruptionError,
    ExecutorFaultError,
    RankDeathError,
    RecoveryExhaustedError,
)


def _ldl_negative_inertia(D: np.ndarray) -> int:
    """Number of negative eigenvalues of a block-diagonal LDL^T ``D``
    (1x1 and 2x2 blocks, as returned by ``scipy.linalg.ldl``)."""
    n = D.shape[0]
    count = 0
    i = 0
    while i < n:
        if i + 1 < n and D[i + 1, i] != 0:
            w = np.linalg.eigvalsh(D[i : i + 2, i : i + 2])
            count += int(np.sum(w < 0))
            i += 2
        else:
            if D[i, i].real < 0:
                count += 1
            i += 1
    return count


def absorb_fault(solver, err: Exception, it: int, recoveries: int) -> int:
    """The bookkeeping of one fault the solve recovers from.

    Re-raises ``err`` when no fault plan is armed or recovery already
    gave up.  Otherwise counts and logs the fault (a numerical
    breakdown under injection is logged as corruption), raises
    :class:`RecoveryExhaustedError` past ``max_recoveries``, and shrinks
    the solver to the surviving ranks if any died.  Returns the new
    recovery count; the caller restores or retries next.
    """
    injector = solver.grid.cluster.faults
    if injector is None or isinstance(err, RecoveryExhaustedError):
        raise err
    if isinstance(err, np.linalg.LinAlgError):
        err = CorruptionError(f"numerical breakdown under fault injection: {err}")
    recoveries += 1
    injector.recoveries = recoveries
    injector.note("fault", type(err).__name__, it)
    if recoveries > solver.max_recoveries:
        raise RecoveryExhaustedError(
            f"exceeded {solver.max_recoveries} recoveries (last fault at "
            f"iteration {it}): {err}"
        ) from err
    if {r.rank_id for r in solver.grid.ranks} & injector.dead:
        with solver.grid.cluster.tracer.phase("Recovery"):
            shrink_to_survivors(solver, injector.dead)
    return recoveries


def fs_sync(solver) -> None:
    """Barrier around checkpoint I/O: sync all current clocks to max."""
    solver.grid.cluster.sync(solver.grid.everyone.ids)


def charge_fs_transfer(solver, transfers) -> None:
    """Each ``(members, nbytes)`` of ``transfers`` streams ``nbytes``
    per rank through the modeled parallel filesystem (RECOVERY), then
    everyone syncs."""
    for members, nbytes in transfers:
        members.charge_recovery(
            CHECKPOINT_LATENCY + nbytes / CHECKPOINT_BANDWIDTH)
    fs_sync(solver)


def take_checkpoint(solver, it: int, locked: int, ritzv, resd, degs_full,
                    C: DistributedMultiVector, b_sup: float, tol_abs: float,
                    trace: ConvergenceTrace) -> None:
    """Keep the restartable state at the end of outer iteration ``it``
    as the latest checkpoint (the first one is also the clean restart
    point).

    C == C2 on the locked columns and the active columns of C2 are
    dead state (overwritten before any read in the next iteration),
    so the gathered V panel plus the scalars below restart the loop
    bit-identically (regression-tested in tests/test_checkpoint.py).
    A checkpoint after an iteration is synchronous: the column-0
    replica group streams its C row block to the modeled parallel
    filesystem.  The iteration-0 snapshot is uncharged — a real
    implementation regenerates the initial basis from its RNG seed.
    """
    state = {
        "iteration": int(it),
        "locked": int(locked),
        "trace_len": len(trace.records),
        "V": C.gather(),
        "ritzv": np.asarray(ritzv).copy(),
        "resd": None if resd is None else np.asarray(resd).copy(),
        "degrees": np.asarray(degs_full).copy(),
        "b_sup": float(b_sup),
        "tol_abs": float(tol_abs),
    }
    solver._last_ckpt = state
    if solver._ckpt_zero is None:
        solver._ckpt_zero = state
    if it > 0:
        grid = solver.grid
        itemsize = np.dtype(solver.H.dtype).itemsize
        with grid.cluster.tracer.phase("Checkpoint"):
            fs_sync(solver)
            charge_fs_transfer(solver, (
                (grid.rank_at(i, 0),
                 solver.H.rowmap.local_size(i) * solver.cfg.ne * itemsize)
                for i in range(grid.p)))


def shrink_to_survivors(solver, dead_ranks) -> None:
    """Rebuild grid/H/HEMM on the surviving ranks.  The new HEMM keeps
    counting MatVecs where the replaced one stopped, so totals stay
    honest."""
    old_mv = solver.hemm.matvecs
    dense = solver.H.data
    solver.grid = solver.grid.shrink(dead_ranks)
    solver.H = H = DistributedHermitian.from_dense(solver.grid, dense)
    solver.hemm = DistributedHemm(H)
    solver.hemm.matvecs = old_mv
    # each survivor reads its new H block from the replicated source
    # (matrix re-layout is real recovery work, charged as RECOVERY)
    itemsize = np.dtype(H.dtype).itemsize
    charge_fs_transfer(solver, (
        (members, H.rowmap.local_size(members.key[0])
         * H.colmap.local_size(members.key[1]) * itemsize)
        for members in solver.hemm.classes()))
    try:
        solver._check_memory()
    except MemoryError as exc:
        raise RecoveryExhaustedError(
            f"surviving {solver.grid.p}x{solver.grid.q} grid cannot hold the "
            f"problem: {exc}"
        ) from exc


def restore(solver, trace: ConvergenceTrace, restart: bool,
            rng: np.random.Generator) -> tuple:
    """Restore the last checkpoint onto the solver's *current* grid.

    ``restart`` selects the clean initial snapshot instead — used when
    an integrity check invalidated every later checkpoint.  Rebuilds
    C/C2 from the archived V panel, re-primes the locked columns of B2
    with the production redistribution path (:func:`redistribute_c_to_b`
    — the same collectives, honestly charged), and truncates the
    convergence trace to the checkpoint.
    """
    state = solver._ckpt_zero if restart else solver._last_ckpt
    if state is None:  # pragma: no cover - guarded by callers
        raise RecoveryExhaustedError("no checkpoint available to restore")
    grid, H, ne = solver.grid, solver.H, solver.cfg.ne
    dtype = np.dtype(H.dtype)
    V = np.asarray(state["V"], dtype=dtype)
    if restart:
        # a from-zero restart replays with a *fresh* random basis:
        # the invalidated trajectory was produced by the archived V
        # (corrupted, or converged to an unlucky locking order that
        # the acceptance check rejected), so an identical replay
        # could deterministically reproduce the same rejection
        V = solver._random_basis(rng)
    C = DistributedMultiVector.from_global(grid, V, H.rowmap, "C")
    # every surviving rank streams its block of C back in parallel
    # (replicas re-read independently — the restart of a real cluster
    # repopulates every device)
    fs_sync(solver)
    charge_fs_transfer(solver, (
        (members, C.local(*members.key).nbytes)
        for members in Operand.of(C).classes(grid)))
    C2 = DistributedMultiVector.from_global(grid, V, H.rowmap, "C")
    B = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype)
    B2 = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype)
    locked = int(state["locked"])
    if locked > 0:
        redistribute_c_to_b(grid, C2, B2, cols=slice(0, locked))
    del trace.records[int(state["trace_len"]):]
    resd = state["resd"]
    return (
        C, C2, B, B2,
        int(state["iteration"]), locked,
        np.asarray(state["ritzv"]).copy(),
        None if resd is None else np.asarray(resd).copy(),
        np.asarray(state["degrees"]).copy(),
    )


def poll_solver_faults(solver, injector, it: int,
                       C: DistributedMultiVector,
                       C2: DistributedMultiVector) -> None:
    """Iteration-start fault poll (tier-invariant injection point).

    Death is re-checked here so it is detected even on grids whose
    collectives all degenerate to size 1; kernel crashes and bit
    corruption are keyed to the iteration index, which is identical
    across every execution tier.
    """
    injector.poll(solver.grid.cluster.makespan())
    dead = injector.dead_among(solver.grid.ranks)
    if dead:
        raise RankDeathError(dead)
    ev = injector.crash_for(it)
    if ev is not None:
        raise ExecutorFaultError(
            f"kernel batch aborted at iteration {it} "
            f"(simulated device crash at rank {ev.rank})"
        )
    for cev in injector.corruptions_for(it):
        apply_corruption(solver, C, cev)
        apply_corruption(solver, C2, cev)


def apply_corruption(solver, mv: DistributedMultiVector, ev) -> None:
    """Flip one exponent bit of one element of C-layout row block
    ``ev.rank % p`` (a row picked by the event, not necessarily the
    event rank's own grid row ``ev.rank // q``) — written once through
    the part's view, so every replica sees it."""
    grid = solver.grid
    i = ev.rank % grid.p
    ref = mv.local(i, 0)
    if ref.size == 0:
        return
    rng = np.random.default_rng(ev.seed)
    r = int(rng.integers(ref.shape[0]))
    c = int(rng.integers(mv.ne))
    val = np.array([ref[r, c]], dtype=mv.dtype)
    real = val.view(np.float32 if val.real.dtype == np.float32
                    else np.float64)
    w = int(rng.integers(real.size))
    # exponent-field bits below the MSB: a large, always-finite
    # perturbation (an MSB flip could produce inf/nan, which models a
    # different failure; a mantissa flip would vanish below tol)
    if real.dtype == np.float64:
        u = real.view(np.uint64)
        u[w] ^= np.uint64(1) << np.uint64(53 + int(rng.integers(9)))
    else:
        u = real.view(np.uint32)
        u[w] ^= np.uint32(1) << np.uint32(23 + int(rng.integers(7)))
    ref[r, c] = val[0]


def verify_locked(solver, C, C2, B, B2, ritzv, locked: int,
                  tol_abs: float, tracer) -> None:
    """Corruption detection: recompute every residual and re-check the
    locked (supposedly converged) columns against the tolerance.

    This is the honestly-charged distributed residual sweep of
    Algorithm 2 run over *all* columns; silent corruption of a locked
    eigenpair is impossible as long as the sweep runs (the chaos
    suite's no-silent-wrong guarantee rests on it)."""
    if locked == 0:
        return
    with tracer.phase("Verify"):
        resd_all = residuals(solver.hemm, C, C2, B, B2, ritzv, 0)
    ok = resd_all[:locked] <= 10.0 * tol_abs
    bad = np.nonzero(~ok)[0]  # ~ also catches NaN
    if bad.size:
        col = int(bad[0])
        raise CorruptionError(
            f"locked column {col} failed the residual re-check "
            f"({resd_all[col]:.3e} > {10.0 * tol_abs:.3e})",
            column=col,
            residual=float(resd_all[col]),
        )


def verify_spectrum(solver, ritzv, nev: int, b_sup: float,
                    tol_abs: float, tracer) -> None:
    """Acceptance check before a converged solve returns.

    Residual checks cannot see a *lost search direction*: corruption
    of an active column can make the solver converge to genuine
    eigenpairs that are not the lowest ones.  Fresh, honestly
    charged verification Lanczos sweeps probe the spectrum; each
    probe Ritz value carries a rigorous residual bound
    (``|theta - lambda| <= resid`` for some true eigenvalue), so a
    probe value below the accepted ceiling whose distance to every
    accepted eigenvalue exceeds its bound *proves* the acceptance
    missed spectrum — with no false positives regardless of probe
    quality.  A failure invalidates every checkpoint taken since
    the corruption, so recovery restarts from the clean initial
    snapshot.
    """
    accepted = np.sort(np.asarray(ritzv[:nev], dtype=np.float64))
    if not np.all(np.isfinite(accepted)):
        raise CorruptionError(
            "non-finite accepted Ritz values", restart=True)
    if float(accepted[-1]) > b_sup + 100.0 * tol_abs:
        raise CorruptionError(
            "accepted Ritz value above the spectrum upper bound",
            restart=True)
    with tracer.phase("Verify"):
        probes = lanczos_ritz(
            solver.hemm,
            steps=max(solver.cfg.lanczos_steps, 2 * nev + 10),
            runs=2, rng=np.random.default_rng(0x5FC),
        )
    width = max(float(b_sup) - float(accepted[0]), 1.0)
    slack = max(50.0 * tol_abs, 1e-9 * width)
    for theta, resid in probes:
        mask = theta < accepted[-1] - slack
        if not np.any(mask):
            continue
        th, rs = theta[mask], resid[mask]
        gaps = np.min(np.abs(th[:, None] - accepted[None, :]), axis=1)
        bad = np.nonzero(gaps > rs + slack)[0]
        if bad.size:
            j = int(bad[0])
            raise CorruptionError(
                f"verification Lanczos proved an eigenvalue near "
                f"{th[j]:.6g} (+- {rs[j]:.2g}) that the accepted set "
                f"misses: a search direction was lost to corruption",
                restart=True)
    # The Lanczos probe can only prove a miss when its Ritz value has
    # converged tightly enough; an LDL^T inertia count (Sylvester's
    # law of inertia, spectrum slicing) at a shift just above the
    # accepted ceiling is decisive: it yields the exact number of
    # eigenvalues below the shift, so exactly nev accepted values
    # means no interior eigenvalue was lost.  Numeric mode only; the
    # factorization is charged as a rank-distributed N^3/3 solve.
    H, grid = solver.H, solver.grid
    sigma = float(accepted[-1]) + slack
    with tracer.phase("Verify"):
        shifted = H.data - sigma * np.eye(H.N, dtype=H.dtype)
        _lu, D, _perm = scipy.linalg.ldl(shifted)
        count = _ldl_negative_inertia(D)
        n_ranks = max(len(grid.ranks), 1)
        grid.everyone.charge_compute(grid.cluster.gpu_model.time(
            "gemm", (H.N ** 3 / 3.0) / n_ranks))
        fs_sync(solver)
    if count > nev:
        raise CorruptionError(
            f"inertia count found {count} eigenvalues below "
            f"{sigma:.6g} but only {nev} were accepted: a search "
            f"direction was lost to corruption", restart=True)
