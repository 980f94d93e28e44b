"""The distributed Hermitian matrix ``H`` on the 2D grid.

``H`` is immutable after construction: consumers (``DistributedHemm``)
cache arrays derived from its blocks for the object's lifetime.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.block import BlockMap1D
from repro.runtime.grid import Grid2D

__all__ = ["DistributedHermitian", "global_indices"]


def global_indices(index_map, part: int) -> np.ndarray:
    """The global indices owned by ``part``, in local order."""
    return np.arange(*index_map.range_of(part), dtype=np.int64)


_PANEL_ELEMS = 1 << 20  # elements of ``H`` the Hermitian check reads at once


def _check_hermitian(H: np.ndarray) -> None:
    """Raise unless ``|H - H^H| <= 1e-10 max(1, max|H|)`` (no relative
    slack; NaN fails), a panel of at most ``_PANEL_ELEMS`` at a time."""
    rows = max(1, _PANEL_ELEMS // max(H.shape[0], 1))
    panels = [slice(a, a + rows) for a in range(0, H.shape[0], rows)]
    tol = 1e-10 * max([1.0] + [float(np.abs(H[rs]).max()) for rs in panels])
    if not all(np.abs(H[rs] - H[:, rs].conj().T).max() <= tol for rs in panels):
        raise ValueError("H must be Hermitian")


class DistributedHermitian:
    """``H`` distributed over a ``p x q`` grid.

    Rank ``(i, j)`` owns the local block with rows ``rowmap`` part ``i``
    and columns ``colmap`` part ``j``: the block distribution of paper
    Sec. 2.2.
    """

    def __init__(self, grid: Grid2D, N: int, rowmap, colmap, blocks, dtype):
        self.grid = grid
        self.N = int(N)
        self.rowmap = rowmap
        self.colmap = colmap
        self.blocks = blocks  # dict[(i, j)] -> ndarray; empty: a layout only
        self.dtype = np.dtype(dtype)

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_dense(cls, grid: Grid2D, H: np.ndarray) -> "DistributedHermitian":
        """Distribute a dense Hermitian matrix (numeric mode)."""
        H = np.asarray(H)
        N = H.shape[0]
        if H.shape != (N, N):
            raise ValueError("H must be square")
        _check_hermitian(H)
        rowmap = BlockMap1D(N, grid.p)
        colmap = BlockMap1D(N, grid.q)
        blocks = {}
        for i in range(grid.p):
            rows = slice(*rowmap.range_of(i))
            for j in range(grid.q):
                cols = slice(*colmap.range_of(j))
                blocks[(i, j)] = np.ascontiguousarray(H[rows, cols])
        return cls(grid, N, rowmap, colmap, blocks, H.dtype)

    @classmethod
    def phantom(
        cls, grid: Grid2D, N: int, dtype=np.float64
    ) -> "DistributedHermitian":
        """The block distribution of an ``N x N`` matrix without its
        blocks: all a phantom replay's charges read (paper-scale
        performance runs)."""
        return cls(grid, N, BlockMap1D(N, grid.p), BlockMap1D(N, grid.q), {},
                   dtype)

    # -- access ---------------------------------------------------------------------
    def local(self, i: int, j: int):
        return self.blocks[(i, j)]

    def to_dense(self) -> np.ndarray:
        """Reassemble the global matrix (numeric mode; validation only)."""
        H = np.zeros((self.N, self.N), dtype=self.dtype)
        for i in range(self.grid.p):
            rows = slice(*self.rowmap.range_of(i))
            for j in range(self.grid.q):
                H[rows, slice(*self.colmap.range_of(j))] = self.blocks[(i, j)]
        return H
