"""1D ScaLAPACK-style Householder QR ("HHQR").

This is the QR the new ChASE uses as robustness fallback (Algorithm 4,
line 9) and the baseline of Table 2.  The paper's setup: "HHQR
specifically refers to the Householder QR implementation provided by
ScaLAPACK, which uses a 1D MPI grid and is executed independently over
each column communicator", with a row block equal to the local row count
and a column block of 32.

Cost model (charged explicitly; see below for why):

* **compute** — ``PxGEQRF + PxUNGQR`` flops (factor + form Q) divided
  over the communicator's ranks, executed on the **host** at the CPU
  ``factor_rate`` with a panel-inefficiency multiplier: ScaLAPACK QR is
  a host library, which is precisely why the paper's HHQR numbers are
  so much slower than device-resident CholeskyQR (Table 2);
* **data movement** — the C panels are staged device->host before the
  factorization and host->device after it (GPU builds);
* **communication** — per column-panel (width 32): one binomial
  broadcast of the panel and one allreduce of the triangular factor.

The *numerics* are computed directly on the multivector's one array
(all blocks live in one process), which is bit-identical across the
ranks of a column communicator — exactly the redundancy the real
library exhibits — while the cost follows the model above.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.perfmodel.kernels import geqrf_flops
from repro.runtime.backend import CommBackend
from repro.runtime.grid import Grid2D

__all__ = ["hhqr_1d", "PANEL_INEFFICIENCY", "PANEL_NB"]

#: ScaLAPACK panel factorizations run far below the rate of blocked
#: kernels (BLAS-2 panels, latency-bound column norms).
PANEL_INEFFICIENCY = 3.0

#: Column block size used by the paper ("the block size for the columns
#: is fixed at 32").
PANEL_NB = 32


def hhqr_1d(grid: Grid2D, C: DistributedMultiVector | Operand,
            nb: int = PANEL_NB) -> None:
    """Replace ``C`` by the Q factor of its 1D Householder QR, in place.

    Executed redundantly over every column communicator, as in ChASE;
    charged from ``C``'s sizes, and computed but for an :class:`Operand`.
    Each rank's charges come in the per-communicator order — staging
    out, compute, communication, staging back — with the staging charged
    once per block height on the whole grid, and the communicators'
    fault hooks run in communicator order.
    """
    if C.layout != "C":
        raise ValueError("hhqr_1d expects the C layout")
    N = C.index_map.N
    ne = C.ne
    itemsize = np.dtype(C.dtype).itemsize
    flops_total = 2.0 * geqrf_flops(N, ne, C.dtype)  # factor + form Q
    n_panels = math.ceil(ne / nb)
    # -- data movement: GPU builds stage C through the host ----------------
    staged = grid.cluster.backend in (CommBackend.NCCL, CommBackend.MPI_STAGED)
    if staged:
        Operand.of(C).stage(grid, "d2h")

    for j in range(grid.q):
        comm = grid.col_comm(j)
        p = comm.size
        # -- compute: host factorization, flops split over the 1D grid ----
        comm.group.charge_compute(comm.group.cpu.model.time(
            "geqrf", PANEL_INEFFICIENCY * flops_total / p))
        # -- communication: panel broadcasts + triangular allreduces -------
        mpi = CommBackend.MPI_HOST.collective_model(comm.machine)
        panel_bytes = (N / p) * nb * itemsize
        tri_bytes = nb * (nb + 1) / 2 * itemsize
        per_panel = mpi.bcast(panel_bytes, p, comm.spans_nodes) + mpi.allreduce(
            tri_bytes, p, comm.spans_nodes
        )
        comm.charge_collective(n_panels * per_panel)
    # -- data movement back to the device -----------------------------------
    if staged:
        Operand.of(C).stage(grid, "h2d")

    # -- numerics: identical redundant result on all replicas ----------------
    if type(C) is Operand:
        return
    C.data[...] = np.linalg.qr(C.data)[0]
