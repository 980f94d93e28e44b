"""The distributed ChASE solver (Algorithm 2).

Two parallelization schemes are provided:

* ``scheme="new"`` — the paper's contribution: QR, Rayleigh-Ritz and
  Residuals parallelized over the row/column communicators of the 2D
  grid (Sec. 3.1), CholeskyQR-family orthonormalization selected by the
  condition estimate (Sec. 3.2);
* ``scheme="lms"`` — ChASE v1.2 ("Limited Memory and Scaling"): QR,
  Rayleigh-Ritz and Residuals executed *redundantly* on every rank on
  gathered buffers, with the gathers implemented as one broadcast per
  participating rank (Sec. 2.3) — the configuration whose limitations
  motivate the paper.

The backend (NCCL / MPI-staged / MPI-host) is a property of the
cluster the grid lives on; see :class:`repro.runtime.CommBackend`.

Both numeric (real data) and phantom (metadata + cost model only)
executions run through the same code path; phantom runs replay a
:class:`repro.core.trace.ConvergenceTrace` because convergence decisions
need values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.arrays import PhantomArray
from repro.core.condest import estimate_condition
from repro.core.config import ChaseConfig
from repro.core.degrees import optimize_degrees, sort_by_degree
from repro.core.filter import FilterWorkspace, chebyshev_filter
from repro.core.lanczos import SpectralBounds, lanczos_bounds, lanczos_ritz
from repro.core.locking import plan_locking, wanted_locked
from repro.core.precision import (
    PrecisionPolicy,
    narrow_dtype,
    resolve_work_dtype,
)
from repro.core.qr import (
    MIXED_VARIANT,
    QRReport,
    caqr_1d,
    qr_work_precision,
    run_qr_variant,
)
from repro.core.rayleigh_ritz import rayleigh_ritz
from repro.core.residuals import residuals
from repro.core.trace import ConvergenceTrace, IterationRecord
from repro.distributed.hemm import DistributedHemm
from repro.distributed.hermitian import DistributedHermitian, global_indices
from repro.distributed.multivector import DistributedMultiVector
from repro.distributed.redistribute import redistribute_c_to_b
from repro.perfmodel.kernels import gemm_flops, geqrf_flops, heevd_flops
from repro.perfmodel.memory import chase_lms_bytes, chase_new_scheme_bytes, fits_on_device
from repro.runtime.faults import (
    CHECKPOINT_BANDWIDTH,
    CHECKPOINT_LATENCY,
    CorruptionError,
    ExecutorFaultError,
    FaultError,
    FaultPlan,
    RankDeathError,
    RecoveryExhaustedError,
)
from repro.runtime import blas
from repro.runtime.grid import Grid2D
from repro.runtime.tracer import PhaseBreakdown
from repro.runtime.transport import assert_transport_parity

__all__ = ["ChaseSolver", "ChaseResult"]

#: the forced ``qr_mode`` values and the variant each one runs
#: (``"auto"`` selects by the condition estimate instead, Algorithm 4)
_FORCED_QR = {
    "hhqr": "HHQR",
    "cholqr1": "CholeskyQR1",
    "cholqr2": "CholeskyQR2",
    "scholqr2": "sCholeskyQR2",
}


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


@dataclass
class ChaseResult:
    """Outcome of a solve."""

    eigenvalues: np.ndarray | None
    eigenvectors: np.ndarray | None
    residual_norms: np.ndarray | None
    converged: bool
    locked: int
    iterations: int
    matvecs: int
    trace: ConvergenceTrace
    timings: dict[str, PhaseBreakdown] = field(default_factory=dict)
    makespan: float = 0.0
    qr_variants: list[str] = field(default_factory=list)
    #: fault tolerance (DESIGN.md §5f): recoveries performed, checkpoints
    #: taken, and the injector's deterministic fault/recovery trajectory
    recoveries: int = 0
    checkpoints: int = 0
    fault_log: list = field(default_factory=list)
    #: mixed precision (DESIGN.md §5g): the filter working-precision
    #: token ("fp32"/"fp64") chosen by the condest-driven policy for
    #: each outer iteration, plus why the sticky fp64 promotion fired
    precision_log: list = field(default_factory=list)
    precision_promote_reason: str | None = None
    #: eigensolver-as-a-service (DESIGN.md §5i): the full ``N x ne``
    #: final search subspace (``solve(return_subspace=True)`` only) and
    #: the final per-column Chebyshev degree plan — what the warm-start
    #: cache carries into the next step of a correlated sequence
    subspace: np.ndarray | None = None
    degrees: np.ndarray | None = None
    #: the spectral estimates the solve ran with (computed by Lanczos or
    #: passed in via ``solve(bounds=...)``) — cached for the next step
    bounds: "SpectralBounds | None" = None


class ChaseSolver:
    """Distributed Chebyshev-accelerated subspace iteration."""

    def __init__(
        self,
        grid: Grid2D,
        H: DistributedHermitian,
        config: ChaseConfig,
        scheme: str = "new",
        qr_mode: str = "auto",
        *,
        faults: FaultPlan | None = None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        max_recoveries: int = 8,
    ) -> None:
        if scheme not in ("new", "lms"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if qr_mode != "auto" and qr_mode not in _FORCED_QR:
            raise ValueError(f"unknown qr_mode {qr_mode!r}")
        self.grid = grid
        self.H = H
        self.cfg = config
        self.scheme = scheme
        self.qr_mode = qr_mode
        self.hemm = DistributedHemm(H)
        # fault tolerance (DESIGN.md §5f): `faults` arms a plan on the
        # cluster; checkpoint cadence defaults to every iteration
        # whenever an injector is armed
        if faults is not None:
            grid.cluster.attach_faults(faults)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.max_recoveries = int(max_recoveries)
        self._last_ckpt: dict | None = None
        self._ckpt_zero: dict | None = None
        self._check_memory()

    # ------------------------------------------------------------------ memory
    def _check_memory(self) -> None:
        """Reproduce the paper's memory boundary: v1.2's redundant
        ``N x ne`` buffers must fit on one device (Sec. 2.3)."""
        cluster = self.grid.cluster
        dev_bytes = cluster.ranks[0].gpu_spec.memory_bytes
        N, ne = self.H.N, self.cfg.ne
        # mixed precision keeps a narrow working set alive next to the
        # fp64 state; size it into the boundary when narrow filtering is
        # on
        wdt = resolve_work_dtype(self.H.dtype, cluster.config.filter_dtype)
        if self.scheme == "lms":
            need = chase_lms_bytes(
                N, ne, cluster.n_nodes, cluster.ranks_per_node
                * cluster.gpus_per_rank, dtype=self.H.dtype,
                work_dtype=wdt,
            )
        else:
            need = chase_new_scheme_bytes(
                N, ne, self.grid.p, self.grid.q, dtype=self.H.dtype,
                work_dtype=wdt,
            )
        if not fits_on_device(need, dev_bytes):
            raise MemoryError(
                f"ChASE({self.scheme}) needs {need / 1024**3:.1f} GiB per device "
                f"for N={N}, ne={ne} on a {self.grid.p}x{self.grid.q} grid; "
                f"device has {dev_bytes / 1024**3:.1f} GiB"
            )

    # --------------------------------------------------------------- buffers
    def _allocate_phantom(self) -> tuple:
        """Metadata-only C/C2/B/B2 for a phantom replay."""
        grid, H, ne = self.grid, self.H, self.cfg.ne
        dtype = np.dtype(H.dtype)
        C = DistributedMultiVector.zeros(grid, H.rowmap, "C", ne, dtype, True)
        C2 = DistributedMultiVector.zeros(grid, H.rowmap, "C", ne, dtype, True)
        B = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype, True)
        B2 = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype, True)
        return C, C2, B, B2

    def _random_basis(self, rng: np.random.Generator) -> np.ndarray:
        """A fresh ``N x ne`` Gaussian start basis in ``H``'s dtype."""
        H, ne = self.H, self.cfg.ne
        dtype = np.dtype(H.dtype)
        V = rng.standard_normal((H.N, ne))
        if dtype.kind == "c":
            V = V + 1j * rng.standard_normal((H.N, ne))
        return V.astype(dtype)

    def _precision_policy(self) -> PrecisionPolicy:
        """A fresh filter-precision policy in the config's mode."""
        return PrecisionPolicy(self.grid.cluster.config.filter_dtype)

    # ------------------------------------------------------------------- QR
    def _qr_step(self, C: DistributedMultiVector, cond: float) -> QRReport:
        grid = self.grid
        # mixed-precision first pass (DESIGN.md §5g): the requested QR
        # work precision is admitted per call by the doubling gate on
        # the same cond estimate that picks the variant.  The config's
        # qr_dtype defaults to "fp64", where qwork is None and nothing
        # changes.
        qwork = qr_work_precision(
            self.H.dtype, grid.cluster.config.qr_dtype, cond)
        if self.qr_mode == "auto":
            return caqr_1d(grid, C, cond, work=qwork)
        variant = _FORCED_QR[self.qr_mode]
        if variant == "CholeskyQR2" and qwork is not None:
            variant = MIXED_VARIANT
        return run_qr_variant(grid, C, variant, work=qwork)

    # ------------------------------------------- fault tolerance (DESIGN.md §5f)
    def _allocate_from(self, V: np.ndarray) -> tuple:
        """Numeric allocation of C/C2/B/B2 with C distributed from ``V``."""
        grid, H, ne = self.grid, self.H, self.cfg.ne
        dtype = np.dtype(H.dtype)
        C = DistributedMultiVector.from_global(grid, V, H.rowmap, "C")
        C2 = DistributedMultiVector.zeros(grid, H.rowmap, "C", ne, dtype, False)
        B = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype, False)
        B2 = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype, False)
        return C, C2, B, B2

    def _fs_sync(self) -> None:
        """Barrier around checkpoint I/O: sync all current clocks to max."""
        self.grid.cluster.sync(self.grid.everyone.ids)

    def _snapshot(self, it: int, locked: int, ritzv, resd, degs_full,
                  C: DistributedMultiVector, b_sup: float, tol_abs: float,
                  trace: ConvergenceTrace) -> dict:
        """The restartable state at the end of outer iteration ``it``.

        C == C2 on the locked columns and the active columns of C2 are
        dead state (overwritten before any read in the next iteration),
        so the gathered V panel plus the scalars below restart the loop
        bit-identically (regression-tested in tests/test_checkpoint.py).
        """
        return {
            "iteration": int(it),
            "locked": int(locked),
            "trace_len": len(trace.records),
            "V": C.gather(0),
            "ritzv": np.asarray(ritzv).copy(),
            "resd": None if resd is None else np.asarray(resd).copy(),
            "degrees": np.asarray(degs_full).copy(),
            "b_sup": float(b_sup),
            "tol_abs": float(tol_abs),
        }

    def _charge_checkpoint_write(self) -> None:
        """Synchronous checkpoint: the column-0 replica group streams its
        C row block to the modeled parallel filesystem (RECOVERY)."""
        grid = self.grid
        itemsize = np.dtype(self.H.dtype).itemsize
        ne = self.cfg.ne
        self._fs_sync()
        for i in range(grid.p):
            nbytes = self.H.rowmap.local_size(i) * ne * itemsize
            grid.rank_at(i, 0).charge_recovery(
                CHECKPOINT_LATENCY + nbytes / CHECKPOINT_BANDWIDTH
            )
        self._fs_sync()

    def _charge_restore_read(self, C: DistributedMultiVector) -> None:
        """Restore: every surviving rank streams its block of ``C`` back
        in parallel (replicas re-read independently — the restart of a
        real cluster repopulates every device)."""
        self._fs_sync()
        for members in C.classes():
            members.charge_recovery(
                CHECKPOINT_LATENCY
                + C.blocks[members.key].nbytes / CHECKPOINT_BANDWIDTH)
        self._fs_sync()

    def _take_checkpoint(self, state: dict, tracer, charge: bool) -> None:
        self._last_ckpt = state
        if self._ckpt_zero is None:
            self._ckpt_zero = state
        if charge:
            with tracer.phase("Checkpoint"):
                self._charge_checkpoint_write()
        if self.checkpoint_path is not None:
            from repro import io  # late import (io imports ChaseResult)

            io.save_checkpoint(state, self.checkpoint_path)

    def _load_checkpoint_state(self, restart: bool = False) -> dict:
        """The most recent checkpoint, round-tripped through disk when a
        checkpoint path is configured.

        ``restart`` selects the clean initial snapshot instead — used
        when an integrity check invalidated every later checkpoint."""
        if restart:
            if self._ckpt_zero is None:  # pragma: no cover - guarded by callers
                raise RecoveryExhaustedError("no initial snapshot to restart from")
            return self._ckpt_zero
        if self.checkpoint_path is not None and os.path.exists(self.checkpoint_path):
            from repro import io

            return io.load_checkpoint(self.checkpoint_path)
        if self._last_ckpt is None:  # pragma: no cover - guarded by callers
            raise RecoveryExhaustedError("no checkpoint available to restore")
        return self._last_ckpt

    def _shrink_to_survivors(self, dead_ranks) -> int:
        """Rebuild grid/H/HEMM on the surviving ranks; returns the matvec
        count of the HEMM instance being replaced (so totals stay honest)."""
        old_mv = self.hemm.matvecs
        dense = self.H.to_dense()
        self.grid = self.grid.shrink(dead_ranks)
        self.H = DistributedHermitian.from_dense(self.grid, dense)
        self.hemm = DistributedHemm(self.H)
        # each survivor reads its new H block from the replicated source
        # (matrix re-layout is real recovery work, charged as RECOVERY)
        itemsize = np.dtype(self.H.dtype).itemsize
        for members in self.hemm.classes():
            i, j = members.key
            nbytes = (self.H.rowmap.local_size(i)
                      * self.H.colmap.local_size(j) * itemsize)
            members.charge_recovery(
                CHECKPOINT_LATENCY + nbytes / CHECKPOINT_BANDWIDTH)
        self._fs_sync()
        try:
            self._check_memory()
        except MemoryError as exc:
            raise RecoveryExhaustedError(
                f"surviving {self.grid.p}x{self.grid.q} grid cannot hold the "
                f"problem: {exc}"
            ) from exc
        return old_mv

    def _restore(self, trace: ConvergenceTrace, restart: bool = False,
                 rng: np.random.Generator | None = None) -> tuple:
        """Restore the last checkpoint onto the *current* grid.

        Rebuilds C/C2 from the archived V panel, re-primes the locked
        columns of B2 with the production redistribution path
        (:func:`redistribute_c_to_b` — the same collectives, honestly
        charged), and truncates the convergence trace to the checkpoint.
        """
        state = self._load_checkpoint_state(restart)
        grid, H, ne = self.grid, self.H, self.cfg.ne
        dtype = np.dtype(H.dtype)
        V = np.asarray(state["V"], dtype=dtype)
        if restart and rng is not None:
            # a from-zero restart replays with a *fresh* random basis:
            # the invalidated trajectory was produced by the archived V
            # (corrupted, or converged to an unlucky locking order that
            # the acceptance check rejected), so an identical replay
            # could deterministically reproduce the same rejection
            V = self._random_basis(rng)
        C = DistributedMultiVector.from_global(grid, V, H.rowmap, "C")
        self._charge_restore_read(C)
        C2 = DistributedMultiVector.from_global(grid, V, H.rowmap, "C")
        B = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype, False)
        B2 = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype, False)
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

    def _poll_solver_faults(self, injector, it: int,
                            C: DistributedMultiVector,
                            C2: DistributedMultiVector) -> None:
        """Iteration-start fault poll (tier-invariant injection point).

        Death is re-checked here so it is detected even on grids whose
        collectives all degenerate to size 1; kernel crashes and bit
        corruption are keyed to the iteration index, which is identical
        across every execution tier.
        """
        injector.poll(self.grid.cluster.makespan())
        dead = injector.dead_among(self.grid.ranks)
        if dead:
            raise RankDeathError(dead)
        ev = injector.crash_for(it)
        if ev is not None:
            raise ExecutorFaultError(
                f"kernel batch aborted at iteration {it} "
                f"(simulated device crash at rank {ev.rank})"
            )
        for cev in injector.corruptions_for(it):
            self._apply_corruption(C, cev)
            self._apply_corruption(C2, cev)

    def _apply_corruption(self, mv: DistributedMultiVector, ev) -> None:
        """Flip one exponent bit of one element of the event rank's local
        C-layout block — written through every replica so each execution
        tier sees the identical corrupted state."""
        if mv.is_phantom:
            return
        grid = self.grid
        i = ev.rank % grid.p
        ref = mv.blocks[(i, 0)]
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
        if mv.aliased:
            mv.blocks[(i, 0)][r, c] = val[0]
        else:
            for j in range(grid.q):
                mv.blocks[(i, j)][r, c] = val[0]

    def _verify_locked(self, C, C2, B, B2, ritzv, locked: int,
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
            resd_all = residuals(self.hemm, C, C2, B, B2, ritzv, 0)
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

    def _verify_spectrum(self, ritzv, nev: int, b_sup: float,
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
                self.hemm,
                steps=max(self.cfg.lanczos_steps, 2 * nev + 10),
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
        blk = self.H.blocks[(0, 0)]
        if isinstance(blk, PhantomArray):
            return
        sigma = float(accepted[-1]) + slack
        with tracer.phase("Verify"):
            dense = self.H.to_dense()
            shifted = dense - sigma * np.eye(self.H.N, dtype=dense.dtype)
            _lu, D, _perm = scipy.linalg.ldl(shifted)
            count = _ldl_negative_inertia(D)
            n_ranks = max(len(self.grid.ranks), 1)
            self._charge_all_ranks("gemm", (self.H.N ** 3 / 3.0) / n_ranks)
            self._fs_sync()
        if count > nev:
            raise CorruptionError(
                f"inertia count found {count} eigenvalues below "
                f"{sigma:.6g} but only {nev} were accepted: a search "
                f"direction was lost to corruption", restart=True)

    # ------------------------------------------------------------ LMS scheme
    def _charge_all_ranks(self, kind: str, flops: float) -> None:
        """Charge an identical redundant kernel on every rank."""
        self.grid.everyone.charge_compute(
            self.grid.cluster.gpu_model.time(kind, flops))

    def _lms_gather_c(self, C: DistributedMultiVector, cols: slice,
                      pregathered: np.ndarray | None = None):
        """v1.2 collection of the distributed C into a redundant buffer
        (one bcast per rank of each column communicator), then the
        (numeric) global matrix assembled directly.

        The broadcast buffers only size the modeled charges, so
        contiguous column slices are passed as views (no copy); a
        caller that already holds ``C.gather(0)`` can pass it as
        ``pregathered`` to skip the re-assembly.
        """
        grid = self.grid
        width = (cols.stop - (cols.start or 0))
        for j in range(grid.q):
            comm = grid.col_comm(j)
            bufs = []
            for i in range(grid.p):
                blk = C.blocks[(i, j)]
                if C.is_phantom:
                    bufs.append(blk.cols(cols.start, cols.stop))
                else:
                    sl = blk[:, cols]
                    bufs.append(
                        sl if sl.flags["C_CONTIGUOUS"] else np.ascontiguousarray(sl)
                    )
            comm.allgather_by_bcasts(bufs)
        if C.is_phantom:
            return PhantomArray((self.H.N, width), C.dtype)
        if pregathered is not None:
            return pregathered[:, cols]
        return C.gather(0)[:, cols]

    def _lms_gather_b(self, Bmv: DistributedMultiVector):
        grid = self.grid
        for i in range(grid.p):
            comm = grid.row_comm(i)
            bufs = [Bmv.blocks[(i, j)] for j in range(grid.q)]
            comm.allgather_by_bcasts(bufs)
        if Bmv.is_phantom:
            return PhantomArray((self.H.N, Bmv.ne), Bmv.dtype)
        return Bmv.gather(0)

    def _lms_scatter_c(self, C: DistributedMultiVector, V, cols: slice) -> None:
        if C.is_phantom:
            return
        for i in range(self.grid.p):
            rows = global_indices(C.index_map, i)
            blk = V[rows, :]  # fancy indexing already yields a fresh C-order copy
            if C.aliased:
                C.blocks[(i, 0)][:, cols] = blk
            else:
                for j in range(self.grid.q):
                    C.blocks[(i, j)][:, cols] = blk

    def _lms_stage_full(self, nbytes: float) -> None:
        """v1.2 copies results back to the host after each GPU kernel."""
        self.grid.everyone.stage_d2h(nbytes)

    def _iterate_lms(self, C, C2, locked: int, phantom: bool, tracer,
                     pregathered: np.ndarray | None = None):
        """One LMS iteration of QR + RR + Residuals on redundant buffers.

        Returns (ritzv_active, resd_active) (``None`` in phantom mode).

        The RR and Resid phases reuse the scattered ``Q``/``Vnew``
        matrices instead of re-gathering ``C`` — the scatter writes
        exactly those values into the blocks, so the re-assembled global
        matrix is bit-identical to the matrix scattered.
        """
        grid, H, cfg = self.grid, self.H, self.cfg
        ne = cfg.ne
        N = H.N
        dtype = np.dtype(H.dtype)
        fullbytes = N * ne * dtype.itemsize
        active = slice(locked, ne)
        k = ne - locked

        with tracer.phase("QR"):
            V = self._lms_gather_c(C, slice(0, ne), pregathered=pregathered)
            qr_flops = 2.0 * geqrf_flops(N, ne, dtype)
            if dtype.kind == "c":
                qr_flops /= 1.8  # ZGEQRF rate advantage (see LocalKernels.qr)
            self._charge_all_ranks("geqrf", qr_flops)
            if not phantom:
                Q, _ = np.linalg.qr(V)
                Q[:, :locked] = C2.gather(0)[:, :locked]
                self._lms_scatter_c(C, Q, slice(0, ne))
                C2.copy_cols_from(C, locked, ne)
            self._lms_stage_full(fullbytes)

        with tracer.phase("RR"):
            W = self.hemm.apply(C, active)
            Wfull = self._lms_gather_b(W)
            self._charge_all_ranks("gemm", gemm_flops(k, k, N, dtype))
            self._charge_all_ranks("heevd", heevd_flops(k, dtype))
            self._charge_all_ranks("gemm", gemm_flops(N, k, k, dtype))
            ritzv = None
            Y = None
            if not phantom:
                Qa = Q[:, active]  # == C.gather(0)[:, active] after the scatter
                A = Qa.conj().T @ Wfull
                A = 0.5 * (A + A.conj().T)
                ritzv, Y = np.linalg.eigh(A)
                Vnew = Qa @ Y
                self._lms_scatter_c(C, Vnew, active)
                C2.copy_cols_from(C, locked, ne)
            self._lms_stage_full(fullbytes)

        with tracer.phase("Resid"):
            # v1.2 recomputes B = H C for the back-transformed vectors with
            # the distributed HEMM, collects it redundantly again (another
            # round of per-rank broadcasts), and evaluates the norms on the
            # host after staging the operands out of the devices
            W2 = self.hemm.apply(C, active)
            W2full = self._lms_gather_b(W2)
            grid.everyone.stage_d2h(2 * N * k * dtype.itemsize)
            # a numeric run charges the launch only: its norms are taken
            # on the gathered matrix below, not by this kernel
            grid.everyone.cpu.colnorms_sq(
                PhantomArray((N if phantom else 0, k), dtype))
            resd = None
            if not phantom:
                R = W2full - Vnew * ritzv[None, :]  # Vnew == C.gather(0)[:, active]
                resd = np.linalg.norm(R, axis=0)
        return ritzv, resd

    def _run_phases(self, C, C2, B, B2, locked: int, degs, c: float,
                    e: float, mu1: float, wdtype, qr, ritzv=None,
                    filter_ws=None):
        """One iteration's phase sequence of Algorithm 2, each phase
        under its ``tracer.phase``: Filter -> QR -> RR -> Resid (the LMS
        scheme: Filter + host staging, then its redundant QR/RR/Resid).

        The numeric solve and the phantom replay run this one statement
        of it and differ in two arguments: ``qr``, a callable ``C ->
        QRReport`` (selection by the condition estimate vs replay of the
        recorded variant), and ``ritzv``, the current Ritz values
        (``None`` in a replay, which has none).  Returns ``(filter
        matvecs, QR report, active Ritz values, active residuals,
        cond_true)``.
        """
        cfg, H, tracer = self.cfg, self.H, self.grid.cluster.tracer
        ne = cfg.ne
        phantom = C.is_phantom
        with tracer.phase("Filter"):
            mv = chebyshev_filter(
                self.hemm, C, locked, degs, c, e, mu1,
                workspace=filter_ws, work_dtype=wdtype,
            )
            if self.scheme == "lms":
                self._lms_stage_full(H.N * ne * np.dtype(H.dtype).itemsize)
        cond_true = None
        gathered_c = None
        if cfg.compute_true_cond and not phantom:
            # kappa_2 of the matrix the estimate models: the block of
            # vectors *outputted by the filter* (the locked columns are
            # not filtered), computed by SVD as in the paper's Fig. 1.
            # The assembled matrix is kept: the LMS QR phase gathers
            # the same (unmodified) C and can reuse it.
            gathered_c = C.gather(0)
            cond_true = float(np.linalg.cond(gathered_c[:, locked:]))

        if self.scheme == "lms":
            ritz_active, resd_active = self._iterate_lms(
                C, C2, locked, phantom, tracer, pregathered=gathered_c)
            return (mv, QRReport(variant="HHQR(redundant)"), ritz_active,
                    resd_active, cond_true)
        with tracer.phase("QR"):
            report = qr(C)
        # restore locked columns / refresh C2 (line 13)
        C.copy_cols_from(C2, 0, locked)
        C2.copy_cols_from(C, locked, ne)
        with tracer.phase("RR"):
            ritz_active = rayleigh_ritz(self.hemm, C, C2, B, B2, locked)
        with tracer.phase("Resid"):
            resd_active = residuals(
                self.hemm, C, C2, B, B2,
                None if ritzv is None
                else np.concatenate([ritzv[:locked], ritz_active]),
                locked,
            )
        return mv, report, ritz_active, resd_active, cond_true

    # -------------------------------------------------------------- numeric
    def solve(
        self,
        V0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        return_vectors: bool = False,
        *,
        bounds: SpectralBounds | None = None,
        return_subspace: bool = False,
    ) -> ChaseResult:
        """Numeric solve to convergence (Algorithm 2).

        ``bounds`` short-circuits the Lanczos pre-processing with known
        spectral estimates (DESIGN.md §5i): a warm-started sequence step
        reuses the previous step's bounds, skipping the Lanczos phase
        and its MatVecs entirely.  The caller owns the estimates'
        validity — the acceptance layer still rejects Ritz values above
        ``b_sup``.  ``return_subspace`` additionally gathers the full
        ``N x ne`` final search block into ``ChaseResult.subspace`` (the
        warm-start payload of the next step).

        With a fault plan armed on the cluster (DESIGN.md §5f), typed
        faults raised by the runtime hooks trigger the recovery policy —
        shrink to the surviving grid if ranks died, restore the last
        checkpoint, resume filtering — up to ``max_recoveries`` times;
        every retry, checkpoint and re-layout is charged as RECOVERY.
        With no plan armed, the control flow, modeled charges and
        numerics are bit-identical to a build without fault support.

        The solve runs on the cluster's execution backend (DESIGN.md
        §5h) under the cluster's
        :class:`~repro.runtime.config.ExecutionConfig`; on completion
        the backend's wire account is asserted against the modeled
        CommStats — the oracle-parity invariant.  Host BLAS threads are
        placed for the solve's duration
        (:func:`repro.runtime.blas.one_pool_scope`).
        """
        with blas.one_pool_scope():
            result = self._solve_numeric(V0, rng, return_vectors,
                                         bounds=bounds,
                                         return_subspace=return_subspace)
        # every group must have moved exactly the modeled traffic;
        # checked on the final grid (post-recovery re-layouts replace
        # the communicators along with their groups)
        assert_transport_parity(self.grid)
        return result

    def _solve_numeric(
        self,
        V0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        return_vectors: bool = False,
        *,
        bounds: SpectralBounds | None = None,
        return_subspace: bool = False,
    ) -> ChaseResult:
        rng = rng if rng is not None else np.random.default_rng()
        cfg = self.cfg
        ne, nev = cfg.ne, cfg.nev
        tracer = self.grid.cluster.tracer
        injector = self.grid.cluster.faults
        ckpt_every = self.checkpoint_every
        if ckpt_every is None:
            ckpt_every = 1 if injector is not None else 0
        resilient = injector is not None or ckpt_every > 0

        H = self.H
        if V0 is not None:
            if V0.shape != (H.N, ne):
                raise ValueError(f"V0 must be {H.N}x{ne}")
            V_init = V0.astype(np.dtype(H.dtype))
        else:
            V_init = self._random_basis(rng)

        # allocation + Lanczos, retried on early faults: a rank death
        # before the first checkpoint restarts the prelude on survivors
        # (the initial basis is a kept global matrix, so nothing is lost)
        mv_base = 0
        recoveries = 0
        while True:
            try:
                C, C2, B, B2 = self._allocate_from(V_init)
                if bounds is None:
                    # warm-started sequence steps pass cached bounds
                    # (DESIGN.md §5i) and skip the Lanczos phase whole
                    with tracer.phase("Lanczos"):
                        bounds = lanczos_bounds(
                            self.hemm, ne, steps=cfg.lanczos_steps,
                            runs=cfg.lanczos_runs, rng=rng,
                        )
                break
            except FaultError as err:
                if injector is None or isinstance(err, RecoveryExhaustedError):
                    raise
                recoveries += 1
                injector.recoveries = recoveries
                injector.note("fault", type(err).__name__, 0)
                if recoveries > self.max_recoveries:
                    raise RecoveryExhaustedError(
                        f"exceeded {self.max_recoveries} recoveries during "
                        f"startup; last fault: {err}"
                    ) from err
                with tracer.phase("Recovery"):
                    dead_here = ({r.rank_id for r in self.grid.ranks}
                                 & injector.dead)
                    if dead_here:
                        mv_base += self._shrink_to_survivors(injector.dead)
                H = self.H
        mv_start = mv_base + self.hemm.matvecs
        b_sup = bounds.b_sup
        tol_abs = cfg.tol * max(abs(bounds.mu1), abs(b_sup))

        ritzv = np.full(ne, bounds.mu1, dtype=np.float64)
        resd: np.ndarray | None = None
        degs_full = np.full(ne, cfg.deg, dtype=np.int64)
        locked = 0
        trace = ConvergenceTrace()
        it = 0
        # ping-pong buffers reused by every filter call of the solve
        filter_ws = FilterWorkspace()
        # mixed precision (DESIGN.md §5g): per-iteration fp32/fp64 gate
        # for the filter, driven by the (cost-free) condition estimate
        # and the previous iteration's active residuals
        policy = self._precision_policy()
        res_scale = max(abs(bounds.mu1), abs(b_sup))
        n_checkpoints = 0
        if resilient:
            # iteration-0 snapshot: the pre-loop state is always
            # restorable (uncharged — a real implementation regenerates
            # the initial basis from its RNG seed)
            self._take_checkpoint(
                self._snapshot(0, 0, ritzv, resd, degs_full, C, b_sup,
                               tol_abs, trace),
                tracer, charge=False,
            )
        pending: FaultError | None = None

        def running() -> bool:
            return it < cfg.max_iter and not wanted_locked(ritzv, locked, nev)

        while running() or pending is not None:
          try:
            if pending is not None:
                from_zero = getattr(pending, "restart", False)
                pending = None
                with tracer.phase("Recovery"):
                    dead_here = ({r.rank_id for r in self.grid.ranks}
                                 & injector.dead)
                    if dead_here:
                        mv_base += self._shrink_to_survivors(injector.dead)
                    (C, C2, B, B2, it, locked, ritzv, resd,
                     degs_full) = self._restore(trace, restart=from_zero,
                                                rng=rng)
                    filter_ws = FilterWorkspace()
                    # a restore rewinds the residual history the sticky
                    # promotion was based on; restart the policy clean
                    policy = self._precision_policy()
                H = self.H
                injector.note("recovered", it, locked,
                              self.grid.p, self.grid.q)
                if not running():
                    break
            it += 1
            if injector is not None:
                self._poll_solver_faults(injector, it, C, C2)
            if it == 1:
                mu1_f, mu_ne_f = bounds.mu1, bounds.mu_ne
            else:
                mu1_f = float(np.min(ritzv))
                mu_ne_f = float(np.max(ritzv))
            c = (b_sup + mu_ne_f) / 2.0
            e = (b_sup - mu_ne_f) / 2.0

            n_active = ne - locked
            if cfg.opt and resd is not None:
                degs_active = optimize_degrees(
                    resd[locked:], ritzv[locked:], c, e, tol_abs,
                    max_deg=cfg.max_deg, extra=cfg.deg_extra,
                )
            else:
                degs_active = np.full(n_active, cfg.deg, dtype=np.int64)

            # sort active columns ascending by degree (Algorithm 1 l. 12)
            order = sort_by_degree(degs_active)
            perm = np.concatenate([np.arange(locked), locked + order])
            C.permute_columns(perm)
            C2.permute_columns(perm)
            ritzv = ritzv[perm]
            if resd is not None:
                resd = resd[perm]
            degs_active = degs_active[order]
            degs_full[locked:] = degs_active

            # the condition estimate is a pure float computation on data
            # fixed before the filter runs, so it can gate the filter's
            # working precision (Algorithm 5 feeds both QR selection and
            # the mixed-precision policy)
            cond = estimate_condition(ritzv, c, e, degs_full, locked)
            token = policy.decide(
                cond_est=cond,
                resd=None if resd is None else resd[locked:],
                scale=res_scale,
            )
            wdtype = resolve_work_dtype(H.dtype, token)
            # the decide() inputs go into the iteration record so a
            # phantom replay reproduces these decisions (DESIGN.md §5g)
            rmin_in = None if resd is None else float(np.min(resd[locked:]))

            mv, report, ritz_active, resd_active, cond_true = self._run_phases(
                C, C2, B, B2, locked, degs_active, c, e, mu1_f, wdtype,
                lambda Cq: self._qr_step(Cq, cond), ritzv, filter_ws)

            ritzv = np.concatenate([ritzv[:locked], ritz_active])
            resd = np.concatenate(
                [np.zeros(locked), resd_active]
            ) if resd is None else np.concatenate([resd[:locked], resd_active])

            lock = plan_locking(resd, ritzv, locked, tol_abs)
            C.permute_columns(lock.perm)
            C2.permute_columns(lock.perm)
            ritzv = ritzv[lock.perm]
            resd = resd[lock.perm]
            degs_full = degs_full[lock.perm]

            trace.append(
                IterationRecord(
                    degrees=degs_active.copy(),
                    locked_before=locked,
                    new_converged=lock.new_converged,
                    qr_variant=report.variant,
                    cond_est=cond,
                    matvecs=mv,
                    resd_min=rmin_in,
                    res_scale=res_scale,
                )
            )
            locked = lock.locked
            if cfg.on_iteration is not None:
                cfg.on_iteration(
                    {
                        "iteration": it,
                        "locked": locked,
                        "new_converged": lock.new_converged,
                        "ritzv": ritzv.copy(),
                        "resd": resd.copy(),
                        "cond_est": cond,
                        "cond_true": cond_true,
                        "qr": report,
                        "matvecs": mv,
                        "degrees": degs_active.copy(),
                    }
                )

            # corruption detection, then checkpoint the verified state
            if injector is not None:
                self._verify_locked(C, C2, B, B2, ritzv, locked,
                                    tol_abs, tracer)
                if wanted_locked(ritzv, locked, nev):
                    self._verify_spectrum(ritzv, nev, b_sup, tol_abs, tracer)
            if ckpt_every and it % ckpt_every == 0:
                self._take_checkpoint(
                    self._snapshot(it, locked, ritzv, resd, degs_full, C,
                                   b_sup, tol_abs, trace),
                    tracer, charge=True,
                )
                n_checkpoints += 1
                if injector is not None:
                    injector.checkpoints = n_checkpoints
          except (FaultError, np.linalg.LinAlgError) as err:
            if injector is None or isinstance(err, RecoveryExhaustedError):
                raise
            if isinstance(err, np.linalg.LinAlgError):
                err = CorruptionError(
                    f"numerical breakdown under fault injection: {err}"
                )
            recoveries += 1
            injector.recoveries = recoveries
            injector.note("fault", type(err).__name__, it)
            if recoveries > self.max_recoveries:
                raise RecoveryExhaustedError(
                    f"exceeded {self.max_recoveries} recoveries; "
                    f"last fault: {err}"
                ) from err
            pending = err

        # final ordering: locked columns ascending by Ritz value
        final = np.concatenate(
            [np.argsort(ritzv[:locked], kind="stable"), np.arange(locked, ne)]
        )
        C.permute_columns(final)
        ritzv = ritzv[final]
        resd = resd[final] if resd is not None else None

        vectors = None
        subspace = None
        if return_subspace:
            subspace = C.gather(0).copy()
            if return_vectors:
                vectors = subspace[:, :nev].copy()
        elif return_vectors:
            vectors = C.gather(0)[:, :nev]

        timings = {ph: tracer.breakdown(ph) for ph in tracer.phases()}
        return ChaseResult(
            eigenvalues=ritzv[:nev].copy(),
            eigenvectors=vectors,
            residual_norms=resd[:nev].copy() if resd is not None else None,
            converged=wanted_locked(ritzv, locked, nev),
            locked=locked,
            iterations=it,
            matvecs=mv_base + self.hemm.matvecs - mv_start,
            trace=trace,
            timings=timings,
            makespan=self.grid.cluster.makespan(),
            qr_variants=[r.qr_variant for r in trace.records],
            recoveries=recoveries,
            checkpoints=n_checkpoints,
            fault_log=list(injector.log) if injector is not None else [],
            precision_log=list(policy.log),
            precision_promote_reason=policy.promote_reason,
            subspace=subspace,
            degrees=degs_full[final].copy(),
            bounds=bounds,
        )

    # -------------------------------------------------------------- phantom
    def solve_phantom(
        self,
        trace: ConvergenceTrace,
        bounds: SpectralBounds | None = None,
        include_lanczos: bool = False,
    ) -> ChaseResult:
        """Replay ``trace`` with metadata-only buffers at full scale.

        Every kernel and collective of Algorithm 2 is exercised through
        the same code path as :meth:`solve`, charging modeled time; no
        arithmetic is performed.  The paper's scaling experiments
        (Figs. 2, 3a, 3b) are phantom replays.
        """
        grid, H = self.grid, self.H
        tracer = grid.cluster.tracer
        bounds = bounds if bounds is not None else SpectralBounds(3.0, -1.0, 1.0)
        C, C2, B, B2 = self._allocate_phantom()

        if include_lanczos:
            with tracer.phase("Lanczos"):
                self._phantom_lanczos_cost()

        c = (bounds.b_sup + bounds.mu_ne) / 2.0
        e = (bounds.b_sup - bounds.mu_ne) / 2.0

        # phantom replays drive the precision policy off the recorded
        # decide() inputs — the per-iteration condition estimate plus
        # (when the trace was recorded by a numeric solve) the previous
        # iteration's smallest active residual and the spectral scale —
        # so the autotuner's modeled makespans see the same precision
        # decisions the policy would produce on the real run.  Synthetic
        # traces carry no residuals and replay cond-gated only.
        policy = self._precision_policy()
        total_mv = 0
        for rec in trace.records:
            locked = rec.locked_before
            degs = np.sort(np.asarray(rec.degrees, dtype=np.int64))
            token = policy.decide(
                cond_est=rec.cond_est,
                resd=None if rec.resd_min is None else (rec.resd_min,),
                scale=rec.res_scale,
            )
            wdtype = resolve_work_dtype(H.dtype, token)
            # a replayed variant never breaks down (a phantom POTRF
            # always succeeds), so the recorded name is what runs
            total_mv += self._run_phases(
                C, C2, B, B2, locked, degs, c, e, bounds.mu1, wdtype,
                lambda Cq: run_qr_variant(
                    grid, Cq, rec.qr_variant, work=narrow_dtype(H.dtype)))[0]

        timings = {ph: tracer.breakdown(ph) for ph in tracer.phases()}
        return ChaseResult(
            eigenvalues=None,
            eigenvectors=None,
            residual_norms=None,
            converged=True,
            locked=trace.records[-1].locked_after if trace.records else 0,
            iterations=trace.iterations,
            matvecs=total_mv,
            trace=trace,
            timings=timings,
            makespan=grid.cluster.makespan(),
            qr_variants=[r.qr_variant for r in trace.records],
            precision_log=list(policy.log),
            precision_promote_reason=policy.promote_reason,
        )

    def _phantom_lanczos_cost(self) -> None:
        """Charge the Lanczos pre-processing cost in phantom mode."""
        cfg, grid, H = self.cfg, self.grid, self.H
        dtype = np.dtype(H.dtype)
        V = DistributedMultiVector.zeros(grid, H.rowmap, "C", 1, dtype, True)
        from repro.distributed.redistribute import redistribute_b_to_c

        for _run in range(cfg.lanczos_runs):
            for _k in range(cfg.lanczos_steps):
                Bmv = self.hemm.apply(V, slice(0, 1))
                W = DistributedMultiVector.zeros(grid, H.rowmap, "C", 1, dtype, True)
                redistribute_b_to_c(grid, Bmv, W)
