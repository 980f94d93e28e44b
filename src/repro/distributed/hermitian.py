"""The distributed Hermitian matrix ``H`` on the 2D grid."""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray
from repro.distributed.block import BlockCyclicMap1D, BlockMap1D
from repro.runtime.grid import Grid2D

__all__ = ["DistributedHermitian", "global_indices"]


def global_indices(index_map, part: int) -> np.ndarray:
    """The global indices owned by ``part``, in local order."""
    idx = np.empty(index_map.local_size(part), dtype=np.int64)
    for seg in index_map.segments(part):
        idx[seg.local_start : seg.local_start + seg.length] = np.arange(
            seg.global_start, seg.global_stop
        )
    return idx


class DistributedHermitian:
    """``H`` distributed over a ``p x q`` grid.

    Rank ``(i, j)`` owns the local block with rows ``rowmap`` part ``i``
    and columns ``colmap`` part ``j`` (size ``n_r x n_c``).  Both block
    and block-cyclic maps are supported (paper Sec. 2.2).
    """

    def __init__(self, grid: Grid2D, N: int, rowmap, colmap, blocks, dtype):
        self.grid = grid
        self.N = int(N)
        self.rowmap = rowmap
        self.colmap = colmap
        self.blocks = blocks  # dict[(i, j)] -> ndarray | PhantomArray
        self.dtype = np.dtype(dtype)
        #: bumped by :meth:`replace_local`; consumers caching derived
        #: arrays (conjugated blocks, fused row panels in
        #: ``DistributedHemm``) key their caches off this counter
        self.version = 0

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        grid: Grid2D,
        H: np.ndarray,
        block_size: int | None = None,
    ) -> "DistributedHermitian":
        """Distribute a dense Hermitian matrix (numeric mode).

        ``block_size=None`` selects the block distribution; otherwise a
        block-cyclic distribution with blocks of ``block_size``.
        """
        H = np.asarray(H)
        N = H.shape[0]
        if H.shape != (N, N):
            raise ValueError("H must be square")
        if not np.allclose(H, H.conj().T, atol=1e-10 * max(1.0, abs(H).max())):
            raise ValueError("H must be Hermitian")
        if block_size is None:
            rowmap = BlockMap1D(N, grid.p)
            colmap = BlockMap1D(N, grid.q)
        else:
            rowmap = BlockCyclicMap1D(N, grid.p, block_size)
            colmap = BlockCyclicMap1D(N, grid.q, block_size)
        blocks = {}
        for i in range(grid.p):
            ri = global_indices(rowmap, i)
            for j in range(grid.q):
                cj = global_indices(colmap, j)
                blocks[(i, j)] = np.ascontiguousarray(H[np.ix_(ri, cj)])
        return cls(grid, N, rowmap, colmap, blocks, H.dtype)

    @classmethod
    def phantom(
        cls, grid: Grid2D, N: int, dtype=np.float64
    ) -> "DistributedHermitian":
        """Metadata-only distribution for paper-scale performance runs."""
        rowmap = BlockMap1D(N, grid.p)
        colmap = BlockMap1D(N, grid.q)
        # one immutable metadata block per shape (at most four)
        by_shape: dict = {}
        blocks = {}
        for i in range(grid.p):
            for j in range(grid.q):
                shape = (rowmap.size(i), colmap.size(j))
                if shape not in by_shape:
                    by_shape[shape] = PhantomArray(shape, dtype)
                blocks[(i, j)] = by_shape[shape]
        return cls(grid, N, rowmap, colmap, blocks, dtype)

    # -- access ---------------------------------------------------------------------
    def local(self, i: int, j: int):
        return self.blocks[(i, j)]

    def replace_local(self, i: int, j: int, block) -> None:
        """Replace the local block of rank ``(i, j)`` and bump ``version``.

        The only supported way to mutate ``H`` after construction —
        in-place writes into a block bypass the version counter and can
        leave stale derived caches behind.
        """
        old = self.blocks[(i, j)]
        if tuple(block.shape) != tuple(old.shape):
            raise ValueError(
                f"block shape {tuple(block.shape)} != expected {tuple(old.shape)}"
            )
        self.blocks[(i, j)] = block
        self.version += 1

    def n_r(self, i: int) -> int:
        return self.rowmap.local_size(i)

    def n_c(self, j: int) -> int:
        return self.colmap.local_size(j)

    def to_dense(self) -> np.ndarray:
        """Reassemble the global matrix (numeric mode; validation only)."""
        H = np.zeros((self.N, self.N), dtype=self.dtype)
        for i in range(self.grid.p):
            ri = global_indices(self.rowmap, i)
            for j in range(self.grid.q):
                cj = global_indices(self.colmap, j)
                H[np.ix_(ri, cj)] = self.blocks[(i, j)]
        return H
