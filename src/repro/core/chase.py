"""The distributed ChASE solver (Algorithm 2).

Two parallelization schemes are provided:

* ``scheme="new"`` — the paper's contribution: QR, Rayleigh-Ritz and
  Residuals parallelized over the row/column communicators of the 2D
  grid (Sec. 3.1), CholeskyQR-family orthonormalization selected by the
  condition estimate (Sec. 3.2);
* ``scheme="lms"`` — ChASE v1.2, whose redundant QR, Rayleigh-Ritz
  and Residuals (:mod:`repro.core.lms`, Sec. 2.3) motivate the paper.

The backend (NCCL / MPI-staged / MPI-host) is a property of the
cluster the grid lives on; see :class:`repro.runtime.CommBackend`.

Both numeric (real data) and phantom (cost model only) executions run
through the same code path, every phase charged from its operands'
shapes: a phantom run holds :class:`~repro.distributed.Operand` buffers,
builds no data, and replays a :class:`repro.core.trace.ConvergenceTrace`
because convergence decisions need values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import lms, recovery
from repro.core.condest import estimate_condition
from repro.core.config import ChaseConfig
from repro.core.degrees import optimize_degrees, sort_by_degree
from repro.core.dos import lanczos_steps
from repro.core.filter import FilterWorkspace, chebyshev_filter
from repro.core.lanczos import SpectralBounds, lanczos_bounds
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
from repro.distributed.hermitian import DistributedHermitian
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.distributed.redistribute import redistribute_b_to_c
from repro.perfmodel.memory import chase_lms_bytes, chase_new_scheme_bytes, fits_on_device
from repro.runtime.faults import FaultError, FaultPlan
from repro.runtime import blas
from repro.runtime.grid import Grid2D
from repro.runtime.tracer import PhaseBreakdown

__all__ = ["ChaseSolver", "ChaseResult"]

#: the forced ``qr_mode`` values and the variant each one runs
#: (``"auto"`` selects by the condition estimate instead, Algorithm 4)
_FORCED_QR = {
    "hhqr": "HHQR",
    "cholqr1": "CholeskyQR1",
    "cholqr2": "CholeskyQR2",
    "scholqr2": "sCholeskyQR2",
}


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
    def _allocate_from(self, V: np.ndarray) -> tuple:
        """Numeric allocation of C/C2/B/B2 with C distributed from ``V``."""
        grid, H, ne = self.grid, self.H, self.cfg.ne
        dtype = np.dtype(H.dtype)
        C = DistributedMultiVector.from_global(grid, V, H.rowmap, "C")
        C2 = DistributedMultiVector.zeros(grid, H.rowmap, "C", ne, dtype)
        B = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype)
        B2 = DistributedMultiVector.zeros(grid, H.colmap, "B", ne, dtype)
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

    def _run_phases(self, C, C2, B, B2, locked: int, degs, c: float,
                    e: float, mu1: float, wdtype, qr, ritzv=None,
                    filter_ws=None):
        """One iteration's phase sequence of Algorithm 2, each phase
        under its ``tracer.phase``: Filter -> QR -> RR -> Resid (the LMS
        scheme: Filter + host staging, then its redundant QR/RR/Resid).

        The numeric solve and the phantom replay run this one statement
        of it and differ in their buffers (multivectors, or the
        :class:`Operand` s of a replay) and two arguments: ``qr``, a
        callable ``C -> QRReport`` (selection by the condition estimate
        vs replay of the recorded variant), and ``ritzv``, the current
        Ritz values (``None`` in a replay, which has none).  Returns ``(filter
        matvecs, QR report, active Ritz values, active residuals,
        cond_true)``.
        """
        cfg, H, tracer = self.cfg, self.H, self.grid.cluster.tracer
        ne = cfg.ne
        phantom = type(C) is Operand
        with tracer.phase("Filter"):
            mv = chebyshev_filter(
                self.hemm, C, locked, degs, c, e, mu1,
                workspace=filter_ws, work_dtype=wdtype,
            )
            if self.scheme == "lms":
                lms.stage_full(self, H.N * ne * np.dtype(H.dtype).itemsize)
        cond_true = None
        gathered_c = None
        if cfg.compute_true_cond and not phantom:
            # kappa_2 of the matrix the estimate models: the block of
            # vectors *outputted by the filter* (the locked columns are
            # not filtered), computed by SVD as in the paper's Fig. 1.
            # The assembled matrix is kept: the LMS QR phase gathers
            # the same (unmodified) C and can reuse it.
            gathered_c = C.gather()
            cond_true = float(np.linalg.cond(gathered_c[:, locked:]))

        if self.scheme == "lms":
            ritz_active, resd_active = lms.iterate(
                self, C, C2, locked, phantom, tracer, gathered_c)
            return (mv, QRReport(variant="HHQR(redundant)"), ritz_active,
                    resd_active, cond_true)
        with tracer.phase("QR"):
            report = qr(C)
        if not phantom:  # restore locked columns / refresh C2 (line 13)
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
        :class:`~repro.runtime.config.ExecutionConfig`; every backend
        moves bit-identical data and shares the one CommStats account.
        Host BLAS threads are placed for the solve's duration
        (:func:`repro.runtime.blas.one_pool_scope`).
        """
        with blas.one_pool_scope():
            return self._solve_numeric(V0, rng, return_vectors,
                                       bounds=bounds,
                                       return_subspace=return_subspace)

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
                recoveries = recovery.absorb_fault(self, err, 0, recoveries)
        mv_start = self.hemm.matvecs
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
            # restorable
            recovery.take_checkpoint(self, 0, 0, ritzv, resd, degs_full, C,
                                     b_sup, tol_abs, trace)
        pending: Exception | None = None

        def running() -> bool:
            return it < cfg.max_iter and not wanted_locked(ritzv, locked, nev)

        while running() or pending is not None:
          try:
            if pending is not None:
                from_zero = getattr(pending, "restart", False)
                pending = None
                with tracer.phase("Recovery"):
                    (C, C2, B, B2, it, locked, ritzv, resd,
                     degs_full) = recovery.restore(self, trace, from_zero, rng)
                    filter_ws = FilterWorkspace()
                    # a restore rewinds the residual history the sticky
                    # promotion was based on; restart the policy clean
                    policy = self._precision_policy()
                injector.note("recovered", it, locked,
                              self.grid.p, self.grid.q)
                if not running():
                    break
            it += 1
            if injector is not None:
                recovery.poll_solver_faults(self, injector, it, C, C2)
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
            wdtype = resolve_work_dtype(self.H.dtype, token)
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
                recovery.verify_locked(self, C, C2, B, B2, ritzv, locked,
                                       tol_abs, tracer)
                if wanted_locked(ritzv, locked, nev):
                    recovery.verify_spectrum(self, ritzv, nev, b_sup,
                                             tol_abs, tracer)
            if ckpt_every and it % ckpt_every == 0:
                recovery.take_checkpoint(self, it, locked, ritzv, resd,
                                         degs_full, C, b_sup, tol_abs, trace)
                n_checkpoints += 1
                if injector is not None:
                    injector.checkpoints = n_checkpoints
          except (FaultError, np.linalg.LinAlgError) as err:
            recoveries = recovery.absorb_fault(self, err, it, recoveries)
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
            subspace = C.gather()
            if return_vectors:
                vectors = subspace[:, :nev].copy()
        elif return_vectors:
            vectors = C.gather()[:, :nev]

        timings = {ph: tracer.breakdown(ph) for ph in tracer.phases()}
        return ChaseResult(
            eigenvalues=ritzv[:nev].copy(),
            eigenvectors=vectors,
            residual_norms=resd[:nev].copy() if resd is not None else None,
            converged=wanted_locked(ritzv, locked, nev),
            locked=locked,
            iterations=it,
            matvecs=self.hemm.matvecs - mv_start,
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
        """Replay ``trace`` on operands at full scale.

        Every kernel and collective of Algorithm 2 is charged through
        the same code path as :meth:`solve`, from the C/B operands'
        shapes; no data is built and no arithmetic performed.  The
        paper's scaling experiments (Figs. 2, 3a, 3b) are phantom
        replays.
        """
        grid, H = self.grid, self.H
        tracer = grid.cluster.tracer
        bounds = bounds if bounds is not None else SpectralBounds(3.0, -1.0, 1.0)
        C = Operand("C", self.cfg.ne, H.dtype, H.rowmap)
        B = Operand("B", self.cfg.ne, H.dtype, H.colmap)

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
                C, C, B, B, locked, degs, c, e, bounds.mu1, wdtype,
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
        """Charge the Lanczos pre-processing cost in phantom mode: the
        block sweep's width-``lanczos_runs`` HEMM and B->C redistribute
        of every step, on operands; its BLAS-1 kernels and scalar
        allreduces are not charged (DESIGN.md §5l)."""
        cfg, grid, H = self.cfg, self.grid, self.H
        V = Operand("C", cfg.lanczos_runs, H.dtype, H.rowmap)
        for _k in range(lanczos_steps(cfg.lanczos_steps, H.N)):
            redistribute_b_to_c(grid, self.hemm.apply(V), V)
