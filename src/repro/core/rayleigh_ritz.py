"""Distributed Rayleigh-Ritz projection (Algorithm 2, lines 14-20).

The quotient ``A = C^H H C`` is assembled without ever forming a global
matrix:

1. ``B2 <- Bcast(C2, ccomm)`` — redistribute the orthonormal block into
   the row-communicator layout (1 broadcast per column communicator on
   a square grid);
2. ``B <- H C`` — the distributed HEMM;
3. ``A <- B2^H B`` locally + SUM-allreduce within each row communicator;
4. ``HEEVD(A)`` — redundant small dense eigensolve on every rank;
5. back-transform ``C[:, l:] <- C2[:, l:] A`` — rank-local GEMM.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import is_phantom
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector
from repro.distributed.redistribute import redistribute_c_to_b

__all__ = ["rayleigh_ritz"]


def rayleigh_ritz(
    hemm: DistributedHemm,
    C: DistributedMultiVector,
    C2: DistributedMultiVector,
    B: DistributedMultiVector,
    B2: DistributedMultiVector,
    locked: int,
) -> np.ndarray | None:
    """Project, solve, back-transform.  Returns the active Ritz values
    ascending (length ``ne - locked``), or ``None`` in phantom mode.

    On entry ``C`` holds the orthonormalized block with its locked
    columns already restored and ``C2 == C``.  On exit the active
    columns of both ``C`` and ``C2`` hold the new Ritz vectors and
    ``B``/``B2`` hold ``H C`` / ``C`` in the row layout.
    """
    grid = hemm.grid
    ne = C.ne
    active = slice(locked, ne)

    # (1) redistribute C2 -> B2 (Algorithm 2 line 14)
    redistribute_c_to_b(grid, C2, B2, cols=active)

    # (2) B[:, l:] = H C[:, l:] (line 15)
    HC = hemm.apply(C, active)
    HC.write_into(B, locked)

    # (3) A = B2[:, l:]^H B[:, l:] + allreduce over row communicators (16-17)
    # B/B2 replicate over grid rows, so with aliased operands the local
    # product is unique per grid *column* and the reduced quotient is
    # globally identical: compute the GEMMs on row 0, sum them once via
    # row communicator 0, and charge the replica rows/communicators.
    dedup = (
        B.aliased and B2.aliased and not B.is_phantom and not B2.is_phantom
    )
    A_loc = B.allreduce(B.blockwise(
        lambda k, key: k.gemm(B2.local_cols(key, locked, ne),
                              B.local_cols(key, locked, ne), op_a="C"),
        aliased=dedup), shared=dedup)

    # (4) redundant HEEVD on every rank (line 18)
    ritzv, Y = grid.charged_redundant(
        lambda k, A: k.eigh(A), A_loc, shared=dedup)[(0, 0)]

    # (5) back-transform C[:, l:] = C2[:, l:] Y, then C2 <- C (lines 19-20)
    # C/C2 replicate over grid columns: with aliased buffers the GEMM is
    # unique per grid row and written once through the shared block.
    dedup_c = C.aliased and C2.aliased and not C.is_phantom
    new = C2.blockwise(
        lambda k, key: k.gemm(C2.local_cols(key, locked, ne), Y),
        aliased=dedup_c)
    if not C.is_phantom:
        for key in (C.unique_keys() if dedup_c else C.blocks):
            C.blocks[key][:, active] = new[key]
            C2.blocks[key][:, active] = new[key]

    if ritzv is None or is_phantom(ritzv):
        return None
    return np.asarray(ritzv, dtype=np.float64)
