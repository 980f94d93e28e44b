"""Distributed residual computation (Algorithm 2, lines 20-25).

``||H c_k - lambda_k c_k||`` is evaluated entirely in the B layout as
``||B - B2 diag(ritzv)||`` column-wise: the fresh Ritz vectors are
re-broadcast into ``B2``, ``B <- H C`` is recomputed with the HEMM, the
batched subtraction and squared column norms run on the device (NCCL
build) or on the host after staging (STD/LMS builds, paper Sec. 3.3),
and one small allreduce per row communicator produces the global norms.
Each step is charged from the operands' shapes (DESIGN.md §5j) and
then, but for :class:`Operand` buffers (a phantom replay's), computed
uncharged.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.distributed.redistribute import redistribute_c_to_b
from repro.runtime.backend import CommBackend
from repro.runtime.device import (
    colnorms_sq_numeric,
    sub_scaled_columns_numeric,
)

__all__ = ["residuals"]


def residuals(
    hemm: DistributedHemm,
    C: DistributedMultiVector | Operand,
    C2: DistributedMultiVector | Operand,
    B: DistributedMultiVector | Operand,
    B2: DistributedMultiVector | Operand,
    ritzv: np.ndarray | None,
    locked: int,
) -> np.ndarray | None:
    """Residual norms of the active Ritz pairs (length ``ne - locked``).

    Returns ``None`` for operands (costs are still charged).
    """
    grid = hemm.grid
    ne = C.ne
    n = ne - locked
    active = slice(locked, ne)

    # re-broadcast the back-transformed vectors (line 20) and recompute HC (21)
    redistribute_c_to_b(grid, C2, B2, cols=active)
    HC = hemm.apply(C, active)
    if type(C) is not Operand:
        HC.write_into(B, locked)

    # B/B2 replicate over grid rows: the batched subtraction + column
    # norms are unique per part and the allreduce sums them once, on
    # row communicator 0.
    Bn = Operand.of(B, n)
    if grid.cluster.backend is CommBackend.MPI_STAGED:
        # the BLAS-1 residual kernels stay on the CPU in the STD
        # build: the operands must cross PCIe first
        for members in Bn.classes(grid):
            rows = Bn.rows(members.key)
            members.stage_d2h(rows * n * Bn.dtype.itemsize
                              + rows * n * np.dtype(B2.dtype).itemsize)
    # the numerator is promoted to the Ritz values' float64
    rdt = np.result_type(B.dtype, B2.dtype, np.float64)
    Bn.charge(grid, lambda k, rows: (k.sub_scaled_columns(
        PhantomArray((rows, n), B.dtype), PhantomArray((rows, n), B2.dtype)),
        k.colnorms_sq(PhantomArray((rows, n), rdt))),
        ("residual norms", B2.dtype),
        kernels="gpu" if grid.cluster.backend is CommBackend.NCCL else "cpu",
        reduce=n * np.dtype(np.float64).itemsize)
    if type(C) is Operand:
        return None
    lam = ritzv[active]
    norms = B.allreduce([colnorms_sq_numeric(sub_scaled_columns_numeric(
        b[:, active], b2[:, active], lam))
        for b, b2 in zip(B.parts, B2.parts)])
    return np.sqrt(np.maximum(np.asarray(norms, dtype=np.float64), 0.0))
