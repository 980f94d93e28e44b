"""Communication-avoiding QR (Algorithms 3 & 4).

The filtered block ``C`` (``N x ne``, distributed over each column
communicator) is orthonormalized with a CholeskyQR family kernel:

* **CholeskyQR(k)** (Algorithm 3) — ``k`` repetitions of
  SYRK -> allreduce -> POTRF -> TRSM; ``k = 2`` is CholeskyQR2;
* **shifted CholeskyQR2** (Algorithm 4, cond > 1e8) — one shifted
  Cholesky pass (shift ``s = 11 (m n + n (n+1)) u ||X||_F^2``) followed
  by CholeskyQR2; rescued by ScaLAPACK-HHQR if the shifted POTRF
  still breaks down;
* the **selection heuristic** (Algorithm 4) picks the variant from the
  cost-free condition estimate of Algorithm 5;
* **mixed-precision CholeskyQR2** (DESIGN.md §5g) — when the condition
  estimate clears the CholeskyQR2 doubling bound (as used by Hutter &
  Solomonik's CA-CholeskyQR2, arXiv:1710.08471), the *first* SYRK ->
  allreduce -> POTRF -> TRSM pass runs in fp32 and the second,
  full-precision pass restores ``O(u_64)`` orthogonality.

Compared to Householder QR, the only communication is one ``ne x ne``
allreduce per repetition — this is the paper's Table 2 speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays import PhantomArray
from repro.baselines.scalapack_qr import hhqr_1d
from repro.core.precision import narrow_dtype
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.runtime.backend import CommBackend
from repro.runtime.device import (
    add_diag_numeric,
    frob_norm_sq_numeric,
    potrf_numeric,
    syrk_numeric,
    trsm_numeric,
)
from repro.runtime.grid import Grid2D

__all__ = [
    "QRReport",
    "cholesky_qr",
    "shifted_cholesky_qr2",
    "mixed_cholesky_qr2",
    "qr_work_precision",
    "MIXED_VARIANT",
    "run_qr_variant",
    "caqr_1d",
    "unit_roundoff",
    "shifted_threshold",
]

#: Algorithm 4 thresholds (double precision); the upper one is
#: precision-dependent — see :func:`shifted_threshold`.
SHIFTED_THRESHOLD = 1e8
CHOLQR1_THRESHOLD = 20.0

#: variant label of CholeskyQR2 with an fp32 first pass, as recorded in
#: ``QRReport.variant`` and the convergence trace
MIXED_VARIANT = "mCholeskyQR2[fp32]"


def unit_roundoff(dtype) -> float:
    """``u`` of the working precision (real base type of ``dtype``)."""
    real = np.dtype(dtype)
    if real.kind == "c":
        real = np.dtype(f"f{real.itemsize // 2}")
    return float(np.finfo(real).eps) / 2


def shifted_threshold(dtype) -> float:
    """Algorithm 4's upper switch point, ``O(u^-1/2)``.

    ~1e8 in double precision (the paper's constant), ~4e3 in single —
    CholeskyQR2 requires ``kappa_2(X) <= O(u^-1/2)`` for the Gram
    matrix's Cholesky factorization to run to completion.
    """
    return 1.0 / np.sqrt(unit_roundoff(dtype))


@dataclass
class QRReport:
    """What the QR step actually did (Table 2 / test instrumentation)."""

    variant: str = ""
    chol_iterations: int = 0
    shifted: bool = False
    fallback_hhqr: bool = False
    breakdowns: int = 0
    #: precision token of the mixed first pass (None: all-fp64 variant)
    first_pass_dtype: str | None = None


# Each step is charged from its operands' shapes — the C blocks' recorded
# per-class kernels, closed by the Gram allreduce where there is one, or a
# redundant kernel on everyone — and then, but for an Operand ``C`` (a
# phantom replay's), computed uncharged (DESIGN.md §5j).

def _stage_c(grid: Grid2D, C, direction: str) -> None:
    """STD build only: the QR kernels run on the host, so the C panels
    cross PCIe once at entry and once at exit of the factorization."""
    if grid.cluster.backend is CommBackend.MPI_STAGED:
        Operand.of(C).stage(grid, direction)


def _gram_allreduced(grid: Grid2D, C):
    """SYRK per class and the Gram matrix's allreduce over the column
    communicators, charged as one program; the summed Gram matrix of a
    numeric ``C``, its SYRK run once per part and summed once, on
    column communicator 0."""
    X = Operand.of(C)
    X.charge(grid, lambda k, rows: k.syrk(PhantomArray((rows, X.ne), X.dtype)),
             "syrk", kernels="qr_kernels",
             reduce=X.ne * X.ne * X.dtype.itemsize)
    if type(C) is Operand:
        return None
    return C.allreduce([syrk_numeric(blk) for blk in C.parts])


def _square(C) -> PhantomArray:
    """A shape proxy of ``C``'s replicated ``ne x ne`` matrices: what a
    redundant kernel on everyone is charged on."""
    return PhantomArray((C.ne, C.ne), C.dtype)


def _potrf_all(grid: Grid2D, C, gram) -> tuple:
    """The Cholesky factor of ``gram`` and LAPACK's ``info``, charged to
    everyone; ``(None, 0)`` for an operand's ``gram`` (``None``)."""
    grid.everyone.qr_kernels.potrf(_square(C))
    return (None, 0) if gram is None else potrf_numeric(gram)


def _trsm_all(grid: Grid2D, C, factor) -> None:
    """``C <- C R^{-1}`` blockwise: recorded per-class TRSMs, each
    part's result written into its view."""
    X = Operand.of(C)
    X.charge(grid, lambda k, rows: k.trsm(
        PhantomArray((rows, X.ne), X.dtype),
        PhantomArray((X.ne, X.ne), X.dtype)), "trsm", kernels="qr_kernels")
    if type(C) is not Operand:
        for blk in C.parts:
            blk[...] = trsm_numeric(blk, factor)


def cholesky_qr(
    grid: Grid2D, C: DistributedMultiVector, chol_degree: int, report: QRReport
) -> int:
    """Algorithm 3: ``chol_degree`` CholeskyQR repetitions, in place.

    Returns 0 on success, nonzero on POTRF breakdown (``C`` is left in a
    partially-updated state; callers escalate to a stabler variant).
    """
    if chol_degree < 1:
        raise ValueError("chol_degree must be >= 1")
    _stage_c(grid, C, "d2h")
    for _rep in range(chol_degree):
        factor, info = _potrf_all(grid, C, _gram_allreduced(grid, C))
        if info:
            report.breakdowns += 1
            return info
        _trsm_all(grid, C, factor)
        report.chol_iterations += 1
    _stage_c(grid, C, "h2d")
    return 0


def shifted_cholesky_qr2(
    grid: Grid2D, C: DistributedMultiVector, report: QRReport
) -> None:
    """Algorithm 4, lines 3-12: shifted Cholesky pass + CholeskyQR2.

    Handles condition numbers up to ``O(u^-1)``.  If even the shifted
    POTRF breaks down (a corner case), revert to ScaLAPACK HHQR for
    robustness (line 9).
    """
    report.shifted = True
    N, ne = C.index_map.N, C.ne
    _stage_c(grid, C, "d2h")
    gram = _gram_allreduced(grid, C)

    # global squared Frobenius norm of C (per rank partial + allreduce)
    X = Operand.of(C)
    X.charge(grid, lambda k, rows: k.frob_norm_sq(
        PhantomArray((rows, ne), X.dtype)), "frob", kernels="qr_kernels",
        reduce=8.0)
    s = None if gram is None else 11.0 * (N * ne + ne * (ne + 1)) \
        * unit_roundoff(C.dtype) * C.allreduce(
            [frob_norm_sq_numeric(blk) for blk in C.parts])

    grid.everyone.qr_kernels.add_diag(_square(C))
    factor, info = _potrf_all(
        grid, C, None if gram is None else add_diag_numeric(gram, s))
    if info:
        report.breakdowns += 1
        report.fallback_hhqr = True
        hhqr_1d(grid, C)
        return
    _trsm_all(grid, C, factor)
    report.chol_iterations += 1
    _stage_c(grid, C, "h2d")
    info = cholesky_qr(grid, C, 2, report)
    if info:
        report.fallback_hhqr = True
        hhqr_1d(grid, C)


def qr_work_precision(
    dtype, mode: str, est_cond: float, guard: float = 0.5
) -> np.dtype | None:
    """First-pass dtype for mixed CholeskyQR2, or ``None`` (all fp64).

    The CholeskyQR2 doubling bound (arXiv:1710.08471): one CholeskyQR
    pass at unit roundoff ``u_32`` followed by a full-precision pass
    restores ``O(u_64)`` orthogonality provided ``kappa(V) * sqrt(u_32)``
    stays bounded away from 1.  The fp32 pass is admitted when
    ``est_cond <= guard / sqrt(u_32)`` (``guard = 0.5`` halves the
    theoretical breakdown threshold — ``est_cond`` is an estimate, not a
    certified bound), i.e. up to ~2e3.  ``None`` also when ``dtype`` has
    no narrower counterpart (fp32 inputs).
    """
    if mode == "fp64":
        return None
    if mode != "fp32":
        raise ValueError(f"unknown qr precision mode {mode!r}")
    work = narrow_dtype(dtype)
    if work == np.dtype(dtype):
        return None
    if float(est_cond) <= guard / np.sqrt(unit_roundoff(work)):
        return work
    return None


def mixed_cholesky_qr2(
    grid: Grid2D, C: DistributedMultiVector, report: QRReport, work
) -> int:
    """Mixed-precision CholeskyQR2 (DESIGN.md §5g), in place.

    The first SYRK -> allreduce -> POTRF -> TRSM pass runs on a *copy*
    of ``C`` in the narrow dtype ``work`` (``float32``/``complex64``);
    the second pass runs at full precision and restores ``O(u_64)``
    orthogonality under the doubling gate of :func:`qr_work_precision`.
    Returns 0 on success, nonzero on POTRF breakdown — the narrow first
    pass mutates only the copy, so ``C`` is left **intact** and callers
    escalate to the shifted variant cleanly.
    """
    from repro.core.filter import _cast_mv

    wide = np.dtype(C.dtype)
    _stage_c(grid, C, "d2h")
    W = _cast_mv(grid, C, np.dtype(work))
    factor, info = _potrf_all(grid, W, _gram_allreduced(grid, W))
    if info:
        report.breakdowns += 1
        return info
    _trsm_all(grid, W, factor)
    report.chol_iterations += 1
    report.first_pass_dtype = "fp32"
    # promote Q1 into C's slots; the fp64 second pass corrects the
    # narrow pass's O(u_32 * kappa) orthogonality error
    back = _cast_mv(grid, W, wide)
    if type(C) is not Operand:
        back.write_into(C, 0)
    factor, info = _potrf_all(grid, C, _gram_allreduced(grid, C))
    if info:
        report.breakdowns += 1
        return info
    _trsm_all(grid, C, factor)
    report.chol_iterations += 1
    _stage_c(grid, C, "h2d")
    return 0


def run_qr_variant(
    grid: Grid2D,
    C: DistributedMultiVector,
    variant: str,
    report: QRReport | None = None,
    work=None,
) -> QRReport:
    """Orthonormalize ``C`` in place with the QR ``variant`` named as in
    ``QRReport.variant``: ``HHQR``, ``CholeskyQR1``, ``CholeskyQR2``,
    :data:`MIXED_VARIANT` (first pass in the dtype ``work``) or
    ``sCholeskyQR2``.

    The one statement of "run it, escalate on breakdown": a POTRF
    breakdown of a CholeskyQR variant — a miss of whatever selected it;
    it should not happen when the condition estimate is a true upper
    bound — escalates to the stabilized sCholeskyQR2 (the narrow pass
    of the mixed variant leaves ``C`` untouched, the others a partially
    updated one the shifted pass still handles).  A label this module
    does not produce (a trace recorded under the LMS scheme) runs
    CholeskyQR2.
    """
    report = report if report is not None else QRReport()
    report.variant = variant
    if variant == "HHQR":
        hhqr_1d(grid, C)
        return report
    if variant != "sCholeskyQR2":
        if variant == MIXED_VARIANT:
            info = mixed_cholesky_qr2(grid, C, report, work)
        else:
            degree = 1 if variant == "CholeskyQR1" else 2
            info = cholesky_qr(grid, C, degree, report)
        if not info:
            return report
        report.variant = "sCholeskyQR2"
    shifted_cholesky_qr2(grid, C, report)
    return report


def caqr_1d(
    grid: Grid2D,
    C: DistributedMultiVector,
    est_cond: float,
    report: QRReport | None = None,
    work=None,
) -> QRReport:
    """Algorithm 4: condition-estimate-driven 1D CAQR of ``C``, in place.

    ``work`` (from :func:`qr_work_precision`) routes the CholeskyQR2
    regime through the mixed-precision first pass; the CholeskyQR1 and
    shifted regimes are unaffected (a single narrow pass cannot reach
    fp64 orthogonality, and the shifted variant exists *because* the
    basis is ill-conditioned).
    """
    if est_cond > shifted_threshold(C.dtype):
        variant = "sCholeskyQR2"
    elif est_cond < CHOLQR1_THRESHOLD:
        variant = "CholeskyQR1"
    else:
        variant = MIXED_VARIANT if work is not None else "CholeskyQR2"
    return run_qr_variant(grid, C, variant, report, work)
