"""Distributed residual computation (Algorithm 2, lines 20-25).

``||H c_k - lambda_k c_k||`` is evaluated entirely in the B layout as
``||B - B2 diag(ritzv)||`` column-wise: the fresh Ritz vectors are
re-broadcast into ``B2``, ``B <- H C`` is recomputed with the HEMM, the
batched subtraction and squared column norms run on the device (NCCL
build) or on the host after staging (STD/LMS builds, paper Sec. 3.3),
and one small allreduce per row communicator produces the global norms.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import is_phantom, nbytes_of
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector
from repro.distributed.redistribute import redistribute_c_to_b
from repro.runtime.backend import CommBackend

__all__ = ["residuals"]


def residuals(
    hemm: DistributedHemm,
    C: DistributedMultiVector,
    C2: DistributedMultiVector,
    B: DistributedMultiVector,
    B2: DistributedMultiVector,
    ritzv: np.ndarray | None,
    locked: int,
) -> np.ndarray | None:
    """Residual norms of the active Ritz pairs (length ``ne - locked``).

    Returns ``None`` in phantom mode (costs are still charged).
    """
    grid = hemm.grid
    ne = C.ne
    active = slice(locked, ne)
    phantom = C.is_phantom

    # re-broadcast the back-transformed vectors (line 20) and recompute HC (21)
    redistribute_c_to_b(grid, C2, B2, cols=active)
    HC = hemm.apply(C, active)
    HC.write_into(B, locked)

    # B/B2 replicate over grid rows: with aliased operands the batched
    # subtraction + column norms are unique per grid column; replica
    # rows (i > 0) charge the identical kernels without recomputing and
    # the allreduce runs once (shared) on row communicator 0.
    dedup = (
        B.aliased and B2.aliased and not B.is_phantom and not B2.is_phantom
    )
    if grid.cluster.backend is CommBackend.MPI_STAGED:
        # the BLAS-1 residual kernels stay on the CPU in the STD
        # build: the operands must cross PCIe first
        for members in B.classes():
            members.stage_d2h(
                nbytes_of(B.local_cols(members.key, locked, ne))
                + nbytes_of(B2.local_cols(members.key, locked, ne)))

    def local_norms(k, key):
        ba = B.local_cols(key, locked, ne)
        b2a = B2.local_cols(key, locked, ne)
        lam = ritzv[active] if ritzv is not None else b2a  # phantom dummy
        return k.colnorms_sq(k.sub_scaled_columns(ba, b2a, lam))

    on_gpu = grid.cluster.backend is CommBackend.NCCL
    nrm_loc = B.allreduce(
        B.blockwise(local_norms, "gpu" if on_gpu else "cpu", aliased=dedup),
        shared=dedup)

    first = nrm_loc[(0, 0)]
    if phantom or is_phantom(first):
        return None
    return np.sqrt(np.maximum(np.asarray(first, dtype=np.float64), 0.0))
