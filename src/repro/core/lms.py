"""ChASE v1.2, "Limited Memory and Scaling" (``scheme="lms"``).

The redundant scheme the paper compares against (Sec. 2.3,
arXiv:2205.02491): after the distributed filter, QR, Rayleigh-Ritz and
Residuals run *redundantly* on every rank on gathered ``N x ne``
buffers, with each gather implemented as one broadcast per
participating rank, and results staged back to the host after every
GPU kernel.  Every function takes the
:class:`~repro.core.chase.ChaseSolver` whose grid, matrix and HEMM it
charges.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.perfmodel.kernels import gemm_flops, geqrf_flops, heevd_flops


def charge_all_ranks(solver, kind: str, flops: float) -> None:
    """Charge an identical redundant kernel on every rank."""
    solver.grid.everyone.charge_compute(
        solver.grid.cluster.gpu_model.time(kind, flops))


def _gather_by_bcasts(comms, X, width: int, part) -> None:
    """v1.2's collection of ``X`` (``width`` columns) over each
    communicator of ``comms``: one broadcast per member, each of its
    block's size (charged; the callers assemble the numeric matrix
    directly)."""
    row_bytes = width * np.dtype(X.dtype).itemsize
    for comm in comms:
        comm.allgather_by_bcasts([X.index_map.local_size(part(rank))
                                  * row_bytes for rank in comm.ranks])


def gather_c(solver, C, cols: slice,
             pregathered: np.ndarray | None = None):
    """v1.2 collection of the distributed C into a redundant buffer
    (one bcast per rank of each column communicator), then the
    (numeric) global matrix assembled directly (``None`` for an
    :class:`Operand`); a caller that already holds ``C.gather()`` can
    pass it as ``pregathered`` to skip the re-assembly."""
    _gather_by_bcasts(solver.grid.col_comms, C, cols.stop - (cols.start or 0),
                      lambda rank: rank.coords[0])
    if type(C) is Operand:
        return None
    if pregathered is not None:
        return pregathered[:, cols]
    return C.gather()[:, cols]


def gather_b(solver, Bmv):
    """v1.2 collection of ``Bmv`` over each row communicator; the
    numeric global matrix (``None`` for an :class:`Operand`)."""
    _gather_by_bcasts(solver.grid.row_comms, Bmv, Bmv.ne,
                      lambda rank: rank.coords[1])
    return None if type(Bmv) is Operand else Bmv.gather()


def stage_full(solver, nbytes: float) -> None:
    """v1.2 copies results back to the host after each GPU kernel."""
    solver.grid.everyone.stage_d2h(nbytes)


def iterate(solver, C, C2, locked: int, phantom: bool, tracer,
            pregathered: np.ndarray | None = None):
    """One LMS iteration of QR + RR + Residuals on redundant buffers.

    Returns (ritzv_active, resd_active) (``None`` in phantom mode).

    The RR and Resid phases reuse the scattered ``Q``/``Vnew``
    matrices instead of re-gathering ``C`` — the scatter writes
    exactly those values into the blocks, so the re-assembled global
    matrix is bit-identical to the matrix scattered.
    """
    grid, H, hemm = solver.grid, solver.H, solver.hemm
    ne = solver.cfg.ne
    N = H.N
    dtype = np.dtype(H.dtype)
    fullbytes = N * ne * dtype.itemsize
    active = slice(locked, ne)
    k = ne - locked

    with tracer.phase("QR"):
        V = gather_c(solver, C, slice(0, ne), pregathered)
        qr_flops = 2.0 * geqrf_flops(N, ne, dtype)
        if dtype.kind == "c":
            qr_flops /= 1.8  # complex GEQRF runs at 1.8x the real-flop rate
        charge_all_ranks(solver, "geqrf", qr_flops)
        if not phantom:
            Q, _ = np.linalg.qr(V)
            Q[:, :locked] = C2.data[:, :locked]
            C.data[...] = Q
            C2.copy_cols_from(C, locked, ne)
        stage_full(solver, fullbytes)

    with tracer.phase("RR"):
        W = hemm.apply(C, active)
        Wfull = gather_b(solver, W)
        charge_all_ranks(solver, "gemm", gemm_flops(k, k, N, dtype))
        charge_all_ranks(solver, "heevd", heevd_flops(k, dtype))
        charge_all_ranks(solver, "gemm", gemm_flops(N, k, k, dtype))
        ritzv = None
        Y = None
        if not phantom:
            Qa = Q[:, active]  # == C.gather()[:, active] after the scatter
            A = Qa.conj().T @ Wfull
            A = 0.5 * (A + A.conj().T)
            ritzv, Y = np.linalg.eigh(A)
            Vnew = Qa @ Y
            C.data[:, active] = Vnew
            C2.copy_cols_from(C, locked, ne)
        stage_full(solver, fullbytes)

    with tracer.phase("Resid"):
        # v1.2 recomputes B = H C for the back-transformed vectors with
        # the distributed HEMM, collects it redundantly again (another
        # round of per-rank broadcasts), and evaluates the norms on the
        # host after staging the operands out of the devices
        W2 = hemm.apply(C, active)
        W2full = gather_b(solver, W2)
        grid.everyone.stage_d2h(2 * N * k * dtype.itemsize)
        # a numeric run charges the launch only: its norms are taken
        # on the gathered matrix below, not by this kernel
        grid.everyone.cpu.colnorms_sq(
            PhantomArray((N if phantom else 0, k), dtype))
        resd = None
        if not phantom:
            R = W2full - Vnew * ritzv[None, :]  # Vnew == C.gather()[:, active]
            resd = np.linalg.norm(R, axis=0)
    return ritzv, resd
