"""Distributed rectangular matrices of vectors (the C/C2 and B/B2 buffers).

Two layouts (paper Sec. 3.1):

* ``"C"`` — rows split by the grid's **row map** over grid row index
  ``i`` and *replicated* across grid columns ``j``: the ranks of one
  column communicator jointly hold the full ``N x ne`` matrix;
* ``"B"`` — rows split by the grid's **column map** over ``j`` and
  replicated across grid rows ``i``: one row communicator jointly holds
  the full matrix.

One array per layout: the parts of a layout (grid row ``i`` of the row
map in "C", grid column ``j`` of the column map in "B") are contiguous
row ranges that, stacked in part order, give exactly the global
``N x ne`` matrix.  A numeric multivector holds that matrix as **one
ndarray**, :attr:`~DistributedMultiVector.data`; the block of rank
``(i, j)`` is its part's row-range view, built once per array, and
every replica of a part is that one view object (DESIGN.md §5b).
Elementwise work runs once on the whole array; contracting and reducing
kernels run once per part.

An :class:`Operand` is a multivector without data: what every charge
reads of one.  A phase's charges are functions of operands (DESIGN.md
§5j), so a phantom replay runs on operands alone and builds no
multivector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.runtime.grid import Grid2D

__all__ = ["DistributedMultiVector", "Operand"]


class Operand(NamedTuple):
    """A multivector without data — its layout, width, dtype and index
    map: all its charges read of it.  Applied (``DistributedHemm``), it
    is charged and yields the product's operand."""

    layout: str
    ne: int
    dtype: np.dtype
    index_map: object

    @classmethod
    def of(cls, X, ne: int | None = None) -> "Operand":
        """The operand of ``X`` (a multivector or an operand), ``ne``
        columns wide (default ``X``'s width)."""
        return cls(X.layout, X.ne if ne is None else ne, np.dtype(X.dtype),
                   X.index_map)

    def classes(self, grid: Grid2D):
        """The grid's ranks grouped by the height of their block in this
        layout (at most two heights under the balanced block
        distribution; DESIGN.md §5j)."""
        by_c = self.layout == "C"

        def heights():
            parts = [self.index_map.local_size(k)
                     for k in range(grid.p if by_c else grid.q)]
            return [parts[i if by_c else j]
                    for i in range(grid.p) for j in range(grid.q)]
        return grid.charge_classes((self.index_map, self.layout), heights)

    def rows(self, key) -> int:
        """The height of the block at grid coordinates ``key``."""
        return self.index_map.local_size(key[self.layout == "B"])

    def stage(self, grid: Grid2D, direction: str) -> None:
        """Copy every block of this operand's layout over PCIe,
        ``"d2h"`` or ``"h2d"``: one DATAMOVE charge per shape class."""
        for members in self.classes(grid):
            members.stage(self.rows(members.key) * self.ne
                          * self.dtype.itemsize, direction)

    def charge(self, grid: Grid2D, kernel, what, *, kernels: str = "k",
               reduce: float | None = None) -> None:
        """Charge ``kernel(k, rows)`` on every block of this operand's
        layout as recorded whole-grid steps (:meth:`Grid2D.replay` on the
        ``kernels`` sets): ``kernel`` calls :class:`LocalKernels` methods
        of ``k`` on shape proxies of a ``rows``-high block and may read
        only this operand and what ``what`` names.  ``reduce`` closes the
        step with an allreduce of that many bytes per rank on the
        layout's distributed axis, charged with the step as one program."""
        axis = grid.col_comms if self.layout == "C" else grid.row_comms
        grid.replay(
            self.classes(grid), lambda k, key: kernel(k, self.rows(key)),
            (what, self.ne, self.dtype, reduce), kernels=kernels,
            reduce=None if reduce is None
            else (axis, lambda: [float(reduce)] * len(axis)))


class DistributedMultiVector:
    """An ``N x ne`` matrix of vectors in layout ``"C"`` or ``"B"``:
    ``data``, one ndarray, and :attr:`parts`, its part row-range views."""

    def __init__(self, grid: Grid2D, index_map, layout: str,
                 data: np.ndarray):
        if layout not in ("C", "B"):
            raise ValueError(f"layout must be 'C' or 'B', got {layout!r}")
        if data.ndim != 2 or data.shape[0] != index_map.N:
            raise ValueError(f"a {data.shape} array does not hold the "
                             f"{index_map.N} rows of its index map")
        self.grid = grid
        self.index_map = index_map
        self.layout = layout
        self.data = data
        self.ne = data.shape[1]
        self.dtype = data.dtype
        #: one row-range view per part, in part order: the block every
        #: rank of the part's replication group holds
        self.parts = [data[slice(*index_map.range_of(k))]
                      for k in range(grid.p if layout == "C" else grid.q)]

    def with_data(self, data: np.ndarray) -> "DistributedMultiVector":
        """A multivector of this one's grid, map and layout holding
        ``data``."""
        return DistributedMultiVector(self.grid, self.index_map, self.layout,
                                      data)

    def axis(self):
        """This layout's distributed axis: ``(communicators, keys)`` — the
        grid's column communicators for ``"C"``, its row communicators
        for ``"B"`` (a :class:`~repro.runtime.communicator.CommGroup`) —
        and, per communicator, its ranks' coordinates."""
        grid = self.grid
        if self.layout == "C":
            return grid.col_comms, grid.col_keys
        return grid.row_comms, grid.row_keys

    def allreduce(self, parts: list):
        """SUM ``parts`` — one value per part, in part order — over this
        layout's distributed axis, uncharged (the step's charge half
        charged the collective).

        The communicators of the axis replicate each other, and the
        parts are the first communicator's members: the sum runs once,
        on it, into ``parts[0]`` for arrays; returns the total every rank
        holds.
        """
        return self.axis()[0].allreduce_move([parts])[0]

    # -- constructors ------------------------------------------------------------
    @classmethod
    def zeros(
        cls, grid: Grid2D, index_map, layout: str, ne: int, dtype
    ) -> "DistributedMultiVector":
        return cls(grid, index_map, layout,
                   np.zeros((index_map.N, ne), dtype=dtype))

    @classmethod
    def from_global(
        cls, grid: Grid2D, V: np.ndarray, index_map, layout: str
    ) -> "DistributedMultiVector":
        """Distribute a global ``N x ne`` matrix (numeric mode): one copy."""
        return cls(grid, index_map, layout, np.array(V, order="C"))

    # -- access --------------------------------------------------------------------
    def local(self, i: int, j: int):
        """The block of grid rank ``(i, j)``: its part's view."""
        return self.parts[i if self.layout == "C" else j]

    def segments(self, keyed_rows, start: int, stop: int) -> list:
        """Rows ``[a, b)`` and columns ``[start, stop)`` of the block at
        ``key``, per ``(key, (a, b))`` of ``keyed_rows``: the NumPy views
        a redistribution moves."""
        return [self.local(*key)[a:b, start:stop] for key, (a, b) in keyed_rows]

    def gather(self) -> np.ndarray:
        """The global matrix, a copy (validation / serial handoff)."""
        return self.data.copy()

    # -- column views ------------------------------------------------------------------
    def view_cols(self, start: int, stop: int) -> "DistributedMultiVector":
        """A column-sliced view (``[:, start:stop]``): writes through the
        view update this multivector."""
        if not 0 <= start <= stop <= self.ne:
            raise ValueError(f"bad column range [{start}, {stop}) for ne={self.ne}")
        return self.with_data(self.data[:, start:stop])

    def write_into(self, target: "DistributedMultiVector", start: int) -> None:
        """``target[:, start:start+self.ne] = self`` (no comm)."""
        if self.layout != target.layout:
            raise ValueError("layout mismatch")
        if start + self.ne > target.ne:
            raise ValueError("target column range overflow")
        target.data[:, start:start + self.ne] = self.data

    # -- column bookkeeping (locking) ------------------------------------------------
    def permute_columns(self, perm: np.ndarray) -> None:
        """Apply one global column permutation, in place.

        Column operations are rank-local in both layouts (rows are what
        is distributed), so locking's swaps need no communication.
        """
        perm = np.asarray(perm)
        if perm.shape != (self.ne,):
            raise ValueError("permutation length must equal ne")
        self.data[...] = self.data[:, perm]

    def copy_cols_from(self, other: "DistributedMultiVector", start: int, stop: int) -> None:
        """``self[:, start:stop] = other[:, start:stop]``."""
        if self.layout != other.layout or self.ne != other.ne:
            raise ValueError("incompatible multivectors")
        self.data[:, start:stop] = other.data[:, start:stop]
