"""Distributed rectangular matrices of vectors (the C/C2 and B/B2 buffers).

Two layouts (paper Sec. 3.1):

* ``"C"`` — rows split by the grid's **row map** over grid row index
  ``i`` and *replicated* across grid columns ``j``: the ranks of one
  column communicator jointly hold the full ``N x ne`` matrix;
* ``"B"`` — rows split by the grid's **column map** over ``j`` and
  replicated across grid rows ``i``: one row communicator jointly holds
  the full matrix.

Replication-group execution: because the blocks of one replication
group (fixed ``i``, all ``j`` in layout "C"; fixed ``j``, all ``i`` in
layout "B") hold identical data by construction, numeric mode can store
**one shared ndarray per group** and alias it into every replica slot.
Multivectors built this way carry ``aliased=True`` and every mutating
operation (``write_into``, ``permute_columns``, ``copy_cols_from``)
preserves or re-establishes the aliasing; ``view_cols`` returns one
shared view per group.  ``ExecutionConfig.numeric_dedup`` of the grid's
cluster decides, at construction time only, whether new multivectors are
built aliased; every execution site then adapts to the ``aliased``
property of the multivectors it touches (``DESIGN.md``, "Replication
invariant").
"""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray, is_phantom
from repro.distributed.hermitian import global_indices
from repro.runtime.grid import Grid2D

__all__ = ["DistributedMultiVector"]


class DistributedMultiVector:
    """An ``N x ne`` matrix of vectors in layout ``"C"`` or ``"B"``."""

    def __init__(
        self,
        grid: Grid2D,
        index_map,
        layout: str,
        ne: int,
        blocks,
        dtype,
        aliased: bool = False,
    ):
        if layout not in ("C", "B"):
            raise ValueError(f"layout must be 'C' or 'B', got {layout!r}")
        self.grid = grid
        self.index_map = index_map
        self.layout = layout
        self.ne = int(ne)
        self.blocks = blocks  # dict[(i, j)] -> ndarray | PhantomArray
        self.dtype = np.dtype(dtype)
        #: replicas of one group share a single ndarray (numeric dedup)
        self.aliased = bool(aliased)
        #: set by :meth:`zeros_stacked`: one contiguous array holding
        #: every unique block as a consecutive row slice (fused HEMM
        #: writes all partial products with a single GEMM into it)
        self.stacked_base: np.ndarray | None = None

    # -- charge classes (DESIGN.md §5j) ---------------------------------------------
    def classes(self):
        """The grid's ranks grouped by the height of their block (at most
        two heights under the balanced block distribution)."""
        index_map, layout = self.index_map, self.layout
        return self.grid.charge_classes(
            (index_map, layout),
            lambda i, j: index_map.local_size(i if layout == "C" else j))

    def blockwise(self, kernel, kernels: str = "k",
                  aliased: bool | None = None) -> dict:
        """``Grid2D.charged_map`` over this multivector's blocks: one
        charge per shape class, the arithmetic once per replication root
        when the blocks are ``aliased`` (default: this multivector's
        flag; pass the conjunction when ``kernel`` reads several)."""
        if aliased is None:
            aliased = self.aliased
        return self.grid.charged_map(
            self.classes(), kernel, phantom=self.is_phantom, kernels=kernels,
            root_of=self.rep_root if aliased else None)

    def comm_groups(self) -> list:
        """``(communicator, its ranks' coordinates)`` along this layout's
        distributed axis: the column communicators for ``"C"``, the row
        communicators for ``"B"``."""
        grid = self.grid
        if self.layout == "C":
            return [(grid.col_comm(j), [(i, j) for i in range(grid.p)])
                    for j in range(grid.q)]
        return [(grid.row_comm(i), [(i, j) for j in range(grid.q)])
                for i in range(grid.p)]

    def allreduce(self, values: dict, shared: bool) -> dict:
        """SUM per-rank ``values`` (as :meth:`blockwise` returns them)
        over this layout's distributed axis, one allreduce per
        communicator of :meth:`comm_groups`.

        The communicators replicate each other.  With ``shared`` (the
        values of a replication group are one object) the sum runs once,
        on the first communicator, into a single array every rank then
        holds; the others charge the identical collective without moving
        data.  Otherwise every communicator reduces in place.
        """
        totals = [
            comm.allreduce([values[key] for key in keys],
                           shared=shared and n == 0,
                           compute=not shared or n == 0)
            for n, (comm, keys) in enumerate(self.comm_groups())
        ]
        return dict.fromkeys(values, totals[0][0]) if shared else values

    # -- replication groups --------------------------------------------------------
    def rep_root(self, i: int, j: int) -> tuple[int, int]:
        """Canonical key of the replication group ``(i, j)`` belongs to."""
        return (i, 0) if self.layout == "C" else (0, j)

    def rep_group(self, i: int, j: int) -> list[tuple[int, int]]:
        """All keys holding replicas of block ``(i, j)``."""
        if self.layout == "C":
            return [(i, jj) for jj in range(self.grid.q)]
        return [(ii, j) for ii in range(self.grid.p)]

    def unique_keys(self) -> list[tuple[int, int]]:
        """The canonical (root) key of every replication group."""
        if self.layout == "C":
            return [(i, 0) for i in range(self.grid.p)]
        return [(0, j) for j in range(self.grid.q)]

    def replicas_share_memory(self) -> bool:
        """True when every replica slot holds its group's root ndarray."""
        return all(
            self.blocks[key] is self.blocks[self.rep_root(*key)]
            for key in self.blocks
        )

    # -- constructors ------------------------------------------------------------
    @classmethod
    def zeros(
        cls, grid: Grid2D, index_map, layout: str, ne: int, dtype, phantom: bool
    ) -> "DistributedMultiVector":
        dedup = not phantom and grid.cluster.config.numeric_dedup
        # ranks share a block object per replication root (dedup), or —
        # immutable metadata — per block height (phantom)
        shared: dict = {}
        blocks = {}
        for i in range(grid.p):
            for j in range(grid.q):
                part = i if layout == "C" else j
                n_local = index_map.local_size(part)
                slot = n_local if phantom else part if dedup else (i, j)
                if slot not in shared:
                    shared[slot] = PhantomArray((n_local, ne), dtype) \
                        if phantom else np.zeros((n_local, ne), dtype=dtype)
                blocks[(i, j)] = shared[slot]
        return cls(grid, index_map, layout, ne, blocks, dtype, aliased=dedup)

    @classmethod
    def zeros_stacked(
        cls, grid: Grid2D, index_map, layout: str, ne: int, dtype
    ) -> "DistributedMultiVector":
        """Aliased zeros whose unique blocks share one contiguous base.

        The unique blocks are consecutive row slices of a single
        ``(sum_of_local_sizes) x ne`` ndarray, stacked in part order
        (the same order ``DistributedHemm`` stacks its fused row
        panels), exposed as :attr:`stacked_base`.  Numeric dedup mode
        only — the replicas alias their group root unconditionally.
        """
        parts = grid.p if layout == "C" else grid.q
        sizes = [index_map.local_size(k) for k in range(parts)]
        base = np.zeros((sum(sizes), ne), dtype=dtype)
        roots = {}
        off = 0
        for k, sz in enumerate(sizes):
            roots[k] = base[off : off + sz]
            off += sz
        blocks = {
            (i, j): roots[i if layout == "C" else j]
            for i in range(grid.p)
            for j in range(grid.q)
        }
        mv = cls(grid, index_map, layout, ne, blocks, dtype, aliased=True)
        mv.stacked_base = base
        return mv

    @classmethod
    def from_global(
        cls, grid: Grid2D, V: np.ndarray, index_map, layout: str
    ) -> "DistributedMultiVector":
        """Distribute a global ``N x ne`` matrix (numeric mode)."""
        V = np.asarray(V)
        ne = V.shape[1]
        dedup = grid.cluster.config.numeric_dedup
        blocks = {}
        for i in range(grid.p):
            for j in range(grid.q):
                part = i if layout == "C" else j
                root = (i, 0) if layout == "C" else (0, j)
                if dedup and root in blocks:
                    blocks[(i, j)] = blocks[root]
                    continue
                rows = global_indices(index_map, part)
                blocks[(i, j)] = np.ascontiguousarray(V[rows, :])
        return cls(grid, index_map, layout, ne, blocks, V.dtype, aliased=dedup)

    # -- access --------------------------------------------------------------------
    def local(self, i: int, j: int):
        return self.blocks[(i, j)]

    def local_cols(self, key, start: int, stop: int):
        """Columns ``[start, stop)`` of the block at ``key``: a NumPy view,
        or sliced metadata for a phantom block."""
        blk = self.blocks[key]
        return blk.cols(start, stop) if is_phantom(blk) else blk[:, start:stop]

    def part_of(self, i: int, j: int) -> int:
        """The index-map part a rank's block corresponds to."""
        return i if self.layout == "C" else j

    @property
    def is_phantom(self) -> bool:
        return is_phantom(next(iter(self.blocks.values())))

    # -- whole-matrix views (validation / serial handoff) -----------------------------
    def gather(self, fixed: int = 0) -> np.ndarray:
        """Reassemble the global matrix from one replica group.

        For layout ``"C"`` use column ``fixed``; for ``"B"`` use row
        ``fixed``.  Numeric mode only.
        """
        if self.is_phantom:
            raise TypeError("cannot gather phantom buffers")
        N = self.index_map.N
        out = np.zeros((N, self.ne), dtype=self.dtype)
        parts = self.grid.p if self.layout == "C" else self.grid.q
        for part in range(parts):
            key = (part, fixed) if self.layout == "C" else (fixed, part)
            rows = global_indices(self.index_map, part)
            out[rows, :] = self.blocks[key]
        return out

    def replication_error(self) -> float:
        """Max abs difference between replicas (should be ~0; test helper)."""
        if self.is_phantom:
            return 0.0
        err = 0.0
        for i in range(self.grid.p):
            for j in range(self.grid.q):
                ref_key = (i, 0) if self.layout == "C" else (0, j)
                if self.blocks[(i, j)] is self.blocks[ref_key]:
                    continue
                err = max(
                    err,
                    float(
                        np.abs(self.blocks[(i, j)] - self.blocks[ref_key]).max()
                        if self.blocks[(i, j)].size
                        else 0.0
                    ),
                )
        return err

    # -- column views ------------------------------------------------------------------
    def view_cols(self, start: int, stop: int) -> "DistributedMultiVector":
        """A column-sliced view (``[:, start:stop]``).

        Real blocks are NumPy *views* — writes through the view update
        this multivector; phantom blocks are sliced metadata.  Slots
        holding one object (the replicas of an aliased group) share one
        view object in the result, so it is aliased too.
        """
        if not 0 <= start <= stop <= self.ne:
            raise ValueError(f"bad column range [{start}, {stop}) for ne={self.ne}")
        # every distinct block object is sliced once: the replicas of an
        # aliased group, and the ranks of a phantom shape class, keep
        # sharing one object
        sliced: dict[int, object] = {}
        blocks = {}
        for key, blk in self.blocks.items():
            if id(blk) not in sliced:
                sliced[id(blk)] = self.local_cols(key, start, stop)
            blocks[key] = sliced[id(blk)]
        view = DistributedMultiVector(
            self.grid,
            self.index_map,
            self.layout,
            stop - start,
            blocks,
            self.dtype,
            aliased=self.aliased,
        )
        if self.stacked_base is not None:
            view.stacked_base = self.stacked_base[:, start:stop]
        return view

    def write_into(self, target: "DistributedMultiVector", start: int) -> None:
        """``target[:, start:start+self.ne] = self`` blockwise (no comm).

        When the target is aliased, each replication group is written
        once through its shared ndarray (the source replicas are
        identical by the replication invariant).
        """
        if self.layout != target.layout:
            raise ValueError("layout mismatch")
        if start + self.ne > target.ne:
            raise ValueError("target column range overflow")
        if self.is_phantom:
            return
        if target.aliased:
            for key in target.unique_keys():
                target.blocks[key][:, start : start + self.ne] = self.blocks[key]
            return
        for key in self.blocks:
            target.blocks[key][:, start : start + self.ne] = self.blocks[key]

    # -- column bookkeeping (locking) ------------------------------------------------
    def permute_columns(self, perm: np.ndarray) -> None:
        """Apply one global column permutation to every local block.

        Column operations are rank-local in both layouts (rows are what
        is distributed), so locking's swaps need no communication.  On
        an aliased multivector the permutation is materialized once per
        replication group and the fresh array re-aliased into every
        replica slot.
        """
        if self.is_phantom:
            return
        perm = np.asarray(perm)
        if perm.shape != (self.ne,):
            raise ValueError("permutation length must equal ne")
        # block storage is re-materialized below; the blocks no longer
        # tile one contiguous base afterwards
        self.stacked_base = None
        if self.aliased:
            for root in self.unique_keys():
                new = np.ascontiguousarray(self.blocks[root][:, perm])
                for key in self.rep_group(*root):
                    self.blocks[key] = new
            return
        for key, blk in self.blocks.items():
            self.blocks[key] = np.ascontiguousarray(blk[:, perm])

    def copy_cols_from(self, other: "DistributedMultiVector", start: int, stop: int) -> None:
        """``self[:, start:stop] = other[:, start:stop]`` blockwise."""
        if self.layout != other.layout or self.ne != other.ne:
            raise ValueError("incompatible multivectors")
        if self.is_phantom:
            return
        if self.aliased:
            for key in self.unique_keys():
                self.blocks[key][:, start:stop] = other.blocks[key][:, start:stop]
            return
        for key in self.blocks:
            self.blocks[key][:, start:stop] = other.blocks[key][:, start:stop]
