"""The distributed Hermitian matrix ``H`` on the 2D grid.

``H`` is one ``N x N`` ndarray whose blocks are views of it, and it is
immutable after construction: consumers (``DistributedHemm``) cache
arrays derived from it for the object's lifetime.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.block import BlockMap1D
from repro.runtime.grid import Grid2D

__all__ = ["DistributedHermitian"]

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
    Sec. 2.2.  The blocks tile the global matrix, ``data``, and are
    views of it (:meth:`tiles`).
    """

    def __init__(self, grid: Grid2D, N: int, rowmap, colmap,
                 data: np.ndarray | None, dtype):
        self.grid = grid
        self.N = int(N)
        self.rowmap = rowmap
        self.colmap = colmap
        self.data = data  # the N x N matrix; None: a layout only
        self.dtype = np.dtype(dtype)
        self.blocks = {} if data is None else self.tiles(data)

    def tiles(self, A: np.ndarray) -> dict:
        """``{(i, j): A[rows_i, cols_j]}``: the grid blocks of an
        ``N x N`` array, as views."""
        rows = [slice(*self.rowmap.range_of(i)) for i in range(self.grid.p)]
        cols = [slice(*self.colmap.range_of(j)) for j in range(self.grid.q)]
        return {(i, j): A[r, c] for i, r in enumerate(rows)
                for j, c in enumerate(cols)}

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_dense(cls, grid: Grid2D, H: np.ndarray) -> "DistributedHermitian":
        """Distribute a dense Hermitian matrix (numeric mode): one copy."""
        H = np.asarray(H)
        N = H.shape[0]
        if H.shape != (N, N):
            raise ValueError("H must be square")
        _check_hermitian(H)
        return cls(grid, N, BlockMap1D(N, grid.p), BlockMap1D(N, grid.q),
                   np.array(H, order="C"), H.dtype)

    @classmethod
    def phantom(
        cls, grid: Grid2D, N: int, dtype=np.float64
    ) -> "DistributedHermitian":
        """The block distribution of an ``N x N`` matrix without its
        blocks: all a phantom replay's charges read (paper-scale
        performance runs)."""
        return cls(grid, N, BlockMap1D(N, grid.p), BlockMap1D(N, grid.q),
                   None, dtype)
