"""Re-distribution of the C layout into the B layout (Algorithm 2, l. 14/20).

The Rayleigh-Ritz quotient needs ``C`` copied from its column-communicator
distribution into the ``B2`` buffers distributed within each row
communicator.  On a **square** grid with matching row/column index maps,
the rows needed by column part ``j`` are exactly row part ``j``, held by
the diagonal rank of each column communicator — a *single broadcast per
column communicator* suffices (paper Sec. 3.1).  On non-square grids (or
mismatched maps) the general path issues one broadcast per overlapping
segment, which is why square grids are "the optimal configuration for
ChASE".
"""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray
from repro.distributed.block import overlap_table
from repro.distributed.multivector import DistributedMultiVector
from repro.runtime.grid import Grid2D

__all__ = ["redistribute_c_to_b", "redistribute_b_to_c"]


def redistribute_c_to_b(
    grid: Grid2D,
    C: DistributedMultiVector,
    B: DistributedMultiVector,
    cols: slice | None = None,
) -> int:
    """Copy ``C[:, cols]`` (layout "C") into ``B[:, cols]`` (layout "B").

    Returns the number of broadcast operations issued (1 per column
    communicator on a square grid with aligned maps).
    """
    if C.layout != "C" or B.layout != "B":
        raise ValueError("redistribute_c_to_b needs a C-layout source and B-layout target")
    cols = cols if cols is not None else slice(0, C.ne)
    start = cols.start or 0
    stop = C.ne if cols.stop is None else cols.stop
    width = stop - start
    if width <= 0:
        return 0
    overlaps = overlap_table(C.index_map, B.index_map)
    phantom = C.is_phantom
    n_bcasts = 0

    dedup = not phantom and B.aliased
    for j in range(grid.q):
        comm = grid.col_comm(j)
        for i in range(grid.p):
            for rsl, csl in overlaps[i][j]:
                seg_rows = rsl.stop - rsl.start
                if phantom:
                    bufs = [PhantomArray((seg_rows, width), C.dtype)] * grid.p
                    comm.bcast(bufs, root=i)
                elif dedup:
                    # the target replicates over grid rows: broadcast
                    # the root's segment view (charges unchanged) and
                    # write once through the shared target block
                    src = C.blocks[(i, j)][rsl, start:stop]
                    comm.bcast([src] * grid.p, root=i, shared=True)
                    B.blocks[(0, j)][csl, start:stop] = src
                else:
                    bufs = []
                    for ii in range(grid.p):
                        if ii == i:
                            bufs.append(
                                np.ascontiguousarray(
                                    C.blocks[(i, j)][rsl, start:stop]
                                )
                            )
                        else:
                            bufs.append(
                                np.empty((seg_rows, width), dtype=C.dtype)
                            )
                    comm.bcast(bufs, root=i)
                    for ii in range(grid.p):
                        B.blocks[(ii, j)][csl, start:stop] = bufs[ii]
                n_bcasts += 1
    return n_bcasts


def redistribute_b_to_c(
    grid: Grid2D,
    B: DistributedMultiVector,
    C: DistributedMultiVector,
    cols: slice | None = None,
) -> int:
    """Copy ``B[:, cols]`` (layout "B") into ``C[:, cols]`` (layout "C").

    The mirror of :func:`redistribute_c_to_b`, broadcasting within each
    *row* communicator.  Used by the distributed Lanczos pre-processing,
    whose three-term recurrence needs ``H v`` back in the layout of
    ``v``.  Returns the number of broadcasts issued.
    """
    if B.layout != "B" or C.layout != "C":
        raise ValueError("redistribute_b_to_c needs a B-layout source and C-layout target")
    cols = cols if cols is not None else slice(0, B.ne)
    start = cols.start or 0
    stop = B.ne if cols.stop is None else cols.stop
    width = stop - start
    if width <= 0:
        return 0
    overlaps = overlap_table(B.index_map, C.index_map)
    phantom = B.is_phantom
    n_bcasts = 0

    dedup = not phantom and C.aliased
    for i in range(grid.p):
        comm = grid.row_comm(i)
        for j in range(grid.q):
            # source segment: colmap part j; target segment: rowmap part i
            for csl, rsl in overlaps[j][i]:
                seg_rows = csl.stop - csl.start
                if phantom:
                    bufs = [PhantomArray((seg_rows, width), B.dtype)] * grid.q
                    comm.bcast(bufs, root=j)
                elif dedup:
                    src = B.blocks[(i, j)][csl, start:stop]
                    comm.bcast([src] * grid.q, root=j, shared=True)
                    C.blocks[(i, 0)][rsl, start:stop] = src
                else:
                    bufs = []
                    for jj in range(grid.q):
                        if jj == j:
                            bufs.append(
                                np.ascontiguousarray(
                                    B.blocks[(i, j)][csl, start:stop]
                                )
                            )
                        else:
                            bufs.append(
                                np.empty((seg_rows, width), dtype=B.dtype)
                            )
                    comm.bcast(bufs, root=j)
                    for jj in range(grid.q):
                        C.blocks[(i, jj)][rsl, start:stop] = bufs[jj]
                n_bcasts += 1
    return n_bcasts
