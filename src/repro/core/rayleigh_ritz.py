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
from repro.runtime.device import eigh_numeric, gemm_numeric

__all__ = ["rayleigh_ritz"]


def rayleigh_ritz(
    hemm: DistributedHemm,
    C: DistributedMultiVector | Operand,
    C2: DistributedMultiVector | Operand,
    B: DistributedMultiVector | Operand,
    B2: DistributedMultiVector | Operand,
    locked: int,
) -> np.ndarray | None:
    """Project, solve, back-transform.  Returns the active Ritz values
    ascending (length ``ne - locked``), or ``None`` for operands.

    On entry ``C`` holds the orthonormalized block with its locked
    columns already restored and ``C2 == C``.  On exit the active
    columns of both ``C`` and ``C2`` hold the new Ritz vectors and
    ``B``/``B2`` hold ``H C`` / ``C`` in the row layout.
    """
    grid = hemm.grid
    ne = C.ne
    n = ne - locked
    active = slice(locked, ne)
    numeric = type(C) is not Operand

    # (1) redistribute C2 -> B2 (Algorithm 2 line 14)
    redistribute_c_to_b(grid, C2, B2, cols=active)

    # (2) B[:, l:] = H C[:, l:] (line 15)
    HC = hemm.apply(C, active)
    if numeric:
        HC.write_into(B, locked)

    # (3) A = B2[:, l:]^H B[:, l:] + allreduce over row communicators (16-17)
    # B/B2 replicate over grid rows, so the local product is unique per
    # part and the reduced quotient is globally identical: compute the
    # GEMMs once per part and sum them once via row communicator 0.
    Bn = Operand.of(B, n)
    adt = np.result_type(B2.dtype, B.dtype)
    Bn.charge(grid, lambda k, rows: k.gemm(
        PhantomArray((rows, n), B2.dtype), PhantomArray((rows, n), B.dtype),
        op_a="C"), ("rr quotient", B2.dtype),
        reduce=n * n * adt.itemsize)
    A = B.allreduce([gemm_numeric(b2[:, active], b[:, active], op_a="C")
                     for b2, b in zip(B2.parts, B.parts)]) \
        if numeric else None

    # (4) redundant HEEVD on every rank (line 18)
    grid.everyone.k.eigh(PhantomArray((n, n), adt))
    ritzv, Y = eigh_numeric(A) if numeric else (None, None)

    # (5) back-transform C[:, l:] = C2[:, l:] Y, then C2 <- C (lines 19-20)
    # C/C2 replicate over grid columns: the GEMM is unique per part and
    # written into both parts' views.
    Operand.of(C2, n).charge(grid, lambda k, rows: k.gemm(
        PhantomArray((rows, n), C2.dtype), PhantomArray((n, n), adt)),
        ("rr back", adt))
    if not numeric:
        return None
    for c, c2 in zip(C.parts, C2.parts):
        new = gemm_numeric(c2[:, active], Y)
        c[:, active] = new
        c2[:, active] = new
    return np.asarray(ritzv, dtype=np.float64)
