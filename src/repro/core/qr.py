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

from repro.arrays import nbytes_of
from repro.baselines.scalapack_qr import hhqr_1d
from repro.core.precision import narrow_dtype
from repro.distributed.multivector import DistributedMultiVector
from repro.runtime.backend import CommBackend
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


def _stage_c(grid: Grid2D, C: DistributedMultiVector, direction: str) -> None:
    """STD build only: the QR kernels run on the host, so the C panels
    cross PCIe once at entry and once at exit of the factorization."""
    if grid.cluster.backend is not CommBackend.MPI_STAGED:
        return
    for members in C.classes():
        members.stage(nbytes_of(C.blocks[members.key]), direction)


def _dedup(C: DistributedMultiVector) -> bool:
    """Replication-aware numeric mode: compute once per group, alias."""
    return C.aliased and not C.is_phantom


def _gram_allreduced(grid: Grid2D, C: DistributedMultiVector) -> dict:
    """Per-rank SYRK + allreduce over the column communicators.

    With an aliased ``C`` the SYRK runs once per grid row (the column
    replicas hold the same block) and a single shared allreduce over
    column communicator 0 produces the — globally identical — Gram
    matrix; the remaining column communicators charge the identical
    collective without moving data.
    """
    return C.allreduce(
        C.blockwise(lambda k, key: k.syrk(C.blocks[key]), "qr_kernels"),
        shared=_dedup(C))


def _potrf_all(
    grid: Grid2D, grams: dict, shared: bool = False
) -> tuple[dict, int]:
    results = grid.charged_redundant(
        lambda k, G: k.potrf(G), grams, shared=shared, kernels="qr_kernels")
    info_any = 0
    for _R, info in results.values():
        info_any |= info
    return {key: R for key, (R, _info) in results.items()}, info_any


def _trsm_all(
    grid: Grid2D, C: DistributedMultiVector, factors: dict
) -> None:
    C.blocks.update(C.blockwise(
        lambda k, key: k.trsm(C.blocks[key], factors[key]), "qr_kernels"))


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
        grams = _gram_allreduced(grid, C)
        factors, info = _potrf_all(grid, grams, shared=_dedup(C))
        if info:
            report.breakdowns += 1
            return info
        _trsm_all(grid, C, factors)
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
    dedup = _dedup(C)
    _stage_c(grid, C, "d2h")
    grams = _gram_allreduced(grid, C)

    # global squared Frobenius norm of C (per rank partial + allreduce)
    norms = C.blockwise(
        lambda k, key: k.frob_norm_sq(C.blocks[key]), "qr_kernels")
    for j in range(grid.q):
        res = grid.col_comm(j).allreduce([norms[(i, j)] for i in range(grid.p)])
        for i in range(grid.p):
            norms[(i, j)] = res[i]

    s = 11.0 * (N * ne + ne * (ne + 1)) * unit_roundoff(C.dtype) * norms[(0, 0)]

    shifted = grid.charged_redundant(
        lambda k, G: k.add_diag(G, s), grams, shared=dedup,
        kernels="qr_kernels")
    factors, info = _potrf_all(grid, shifted, shared=dedup)
    if info:
        report.breakdowns += 1
        report.fallback_hhqr = True
        hhqr_1d(grid, C)
        return
    _trsm_all(grid, C, factors)
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
    W = _cast_mv(C, np.dtype(work))
    grams = _gram_allreduced(grid, W)
    factors, info = _potrf_all(grid, grams, shared=_dedup(W))
    if info:
        report.breakdowns += 1
        return info
    _trsm_all(grid, W, factors)
    report.chol_iterations += 1
    report.first_pass_dtype = "fp32"
    # promote Q1 into C's slots; the fp64 second pass corrects the
    # narrow pass's O(u_32 * kappa) orthogonality error
    back = _cast_mv(W, wide)
    for key in C.blocks:
        C.blocks[key] = back.blocks[key]
    grams = _gram_allreduced(grid, C)
    factors, info = _potrf_all(grid, grams, shared=_dedup(C))
    if info:
        report.breakdowns += 1
        return info
    _trsm_all(grid, C, factors)
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
