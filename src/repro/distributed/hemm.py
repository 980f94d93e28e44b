"""The custom distributed HEMM (paper Sec. 2.2 / 3.1).

Because ``H`` is Hermitian, applying it to vectors in the ``C`` layout
and reducing along column communicators yields the result directly in
the ``B`` layout (and vice versa), so the Chebyshev three-term
recurrence alternates layouts without ever re-distributing the vectors:

* ``C -> B``:  ``B_j = sum_i H_ij^H C_i``  (allreduce in ``col_comm(j)``),
  which equals ``(H C)`` restricted to the rows of column part ``j``;
* ``B -> C``:  ``C_i = sum_j H_ij B_j``    (allreduce in ``row_comm(i)``).

Both directions optionally apply the spectral shift
``alpha (H - gamma I) X`` needed by the filter; the diagonal term is
applied exactly once per global row via the row/column segment overlap.

Every apply is one driver (:meth:`DistributedHemm.apply`) running three
stages, each stated once: the modeled **charges** on shape proxies
(cast, GEMM, overlap AXPYs, scale — per charge class, in every rank's
order), the uncharged **numerics**, and the **reductions** — one
blocking allreduce per communicator of the distributed axis, the only
schedule there is.  Only the numerics depend on what the apply is
handed, and know four input kinds (``_numerics``; tabulated in
DESIGN.md §5c): phantom (shape proxies, no arithmetic), aliased + fused
C -> B (``panel_cb_numeric``), aliased + fused B -> C
(``panel_bc_numeric``, charge-only reductions) and per block
(``block_numeric``; aliased inputs reduce into the root partial, plain
ones keep every partial) — so clocks, tracer and CommStats cannot
depend on the kind.

The fused-panel kernels match the per-block arithmetic to rounding
(``<= 1e-13 * ||H||``, asserted by ``tests/test_fused_hemm.py``), not
bit for bit: BLAS tiles the wider fused m-dimension with different SIMD
tail kernels, and B->C folds the q-term reduction sum into the GEMM's
k-loop.

The per-rank GEMMs are *unique* work — the ``p*q`` partial products sum
to exactly the global ``2 N^2 w`` flops — so nothing is deduplicated
there.  What replication-aware execution removes is the post-allreduce
copy-back: with an aliased input the reduction runs once per
communicator into a single shared ndarray that is aliased into every
replica slot of the output (``Communicator.allreduce(shared=True)``).
For complex dtypes the conjugated ``H`` blocks needed by the C->B
direction are additionally cached (``H_ij.conj()`` is a full copy per
call for complex arrays, a no-copy view for real ones); the cached
array has the exact memory layout of the per-call temporary, keeping
the GEMM results bit-identical.  All derived caches (conjugates, fused
panels) are keyed off ``H.version`` and rebuilt when local blocks are
replaced via ``DistributedHermitian.replace_local``.

Modeled charges are issued per *charge class* (DESIGN.md §5j): the grid
ranks grouped by (H block shape, row/column overlap lengths) receive
each GEMM / AXPY / scale charge in one call.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray, is_phantom
from repro.distributed.block import overlap_table
from repro.distributed.hermitian import DistributedHermitian
from repro.distributed.multivector import DistributedMultiVector
from repro.perfmodel.kernels import bytes_per_scalar
from repro.runtime.device import UNCHARGED, LocalKernels, axpy_into_numeric

__all__ = ["DistributedHemm"]

# single-precision counterpart of each double-precision result dtype
_NARROW = {
    np.dtype(np.float64): np.dtype(np.float32),
    np.dtype(np.complex128): np.dtype(np.complex64),
}


def _work_dtype(h_dtype, x_dtype) -> np.dtype:
    """Result dtype of one apply.

    The seed promotion rule (``np.result_type``) — except that a
    *narrow* input (the mixed-precision filter's demoted multivector,
    DESIGN.md §5g) keeps the whole apply narrow: the H blocks are cast
    down to the input's word width rather than the input promoted up.
    With matching widths this is ``np.result_type`` exactly, so the
    default fp64 path is untouched.
    """
    rt = np.result_type(h_dtype, x_dtype)
    if bytes_per_scalar(x_dtype) < bytes_per_scalar(rt):
        return _NARROW.get(rt, rt)
    return rt


# -- the numeric kernels of stage 2 (uncharged; stage 1 charged the model) ----------

def panel_cb_numeric(P, Xfull, cols, pairs_i, gamma, alpha, offs, *, out):
    """C->B fused row panel: ``out = alpha (P^T X - gamma overlaps)``."""
    Xb = Xfull[:, cols]
    np.matmul(P.T, Xb, out=out)
    if pairs_i is not None:
        for j, prs in pairs_i:
            for rsl, csl in prs:
                wsl = slice(offs[j] + csl.start, offs[j] + csl.stop)
                axpy_into_numeric(out, wsl, Xb, rsl, -gamma)
    if alpha != 1.0:
        out *= alpha
    return out


def panel_bc_numeric(P, Bstack, pairs_i, gamma, alpha, offs, *, out):
    """B->C fused contraction: k-dimension folds the q-term reduction."""
    np.matmul(P, Bstack, out=out)
    if pairs_i is not None:
        for j, prs in pairs_i:
            for rsl, csl in prs:
                xsl = slice(offs[j] + csl.start, offs[j] + csl.stop)
                axpy_into_numeric(out, rsl, Bstack, xsl, -gamma)
    if alpha != 1.0:
        out *= alpha
    return out


def block_numeric(Hop, trans, Xfull, cols, pairs, gamma, alpha, to_b, *, out):
    """Seed-granularity partial product of one grid block."""
    Aop = Hop.T if trans else Hop
    Xb = Xfull[:, cols]
    np.matmul(Aop, Xb, out=out)
    if pairs is not None:
        for rsl, csl in pairs:
            if to_b:
                axpy_into_numeric(out, csl, Xb, rsl, -gamma)
            else:
                axpy_into_numeric(out, rsl, Xb, csl, -gamma)
    if alpha != 1.0:
        out *= alpha
    return out


class DistributedHemm:
    """Distributed application of ``alpha (H - gamma I)`` to a multivector."""

    def __init__(self, H: DistributedHermitian):
        self.H = H
        self.grid = H.grid
        self.matvecs = 0  # cumulative single-vector H-applications
        self._hconj: dict[tuple, np.ndarray] = {}
        self._hwork: dict[tuple, object] = {}
        self._panels: dict[tuple, np.ndarray] = {}
        self._panels_conj: dict[tuple, np.ndarray] = {}
        self._offsets: list[int] | None = None
        #: per-key reusable workspace of the numerics (non-root partial
        #: products and the stacked-B operand; never escapes an apply)
        self._scratch: dict[tuple, np.ndarray] = {}
        self._cache_version = H.version

    # -- caches -----------------------------------------------------------------
    def _sync_caches(self) -> None:
        """Drop derived-array caches when ``H`` blocks were replaced.

        The conjugate/panel/work caches are keyed by dtype *within* one
        ``H.version`` — a precision promote/demote switches keys, never
        reuses a block cast from different data — and all of them are
        dropped together here, so no stale narrow copy can survive a
        ``replace_local``.
        """
        if self._cache_version != self.H.version:
            self._hconj.clear()
            self._hwork.clear()
            self._panels.clear()
            self._panels_conj.clear()
            self._cache_version = self.H.version

    def classes(self):
        """The grid ranks grouped by what an apply's charges depend on:
        the H block's shape and the lengths of its row/column overlaps."""
        H = self.H
        overlaps = overlap_table(H.rowmap, H.colmap)
        return self.grid.charge_classes(
            (H.rowmap, H.colmap),
            lambda i, j: (H.rowmap.local_size(i), H.colmap.local_size(j),
                          tuple(r.stop - r.start for r, _c in overlaps[i][j])))

    def _cast_work(self, rdtype) -> None:
        """Build the narrow casts a mixed-precision apply works on (a
        no-op for a full-width apply and once built).

        The cast runs once per block per ``H.version`` and charges every
        rank one :meth:`LocalKernels.cast` at build time, ahead of its
        first narrow GEMM; the model keeps the narrow copy resident
        thereafter (see ``perfmodel.memory.chase_new_scheme_bytes``).
        """
        if bytes_per_scalar(rdtype) >= bytes_per_scalar(self.H.dtype):
            return
        wdt = _NARROW[np.dtype(self.H.dtype)]
        for members in self.classes():
            if (*members.key, wdt.str) in self._hwork:
                continue
            for i, j in members.keys:
                k = members.k if (i, j) == members.key else UNCHARGED
                self._hwork[(i, j, wdt.str)] = k.cast(self.H.local(i, j), wdt)

    def _local_work(self, i: int, j: int, rdtype):
        """``H.local(i, j)`` in the apply's working dtype: the block
        itself, or its cached narrow cast (:meth:`_cast_work`)."""
        if bytes_per_scalar(rdtype) >= bytes_per_scalar(self.H.dtype):
            return self.H.local(i, j)
        return self._hwork[(i, j, _NARROW[np.dtype(self.H.dtype)].str)]

    def _h_conj(self, i: int, j: int, Hij):
        """Conjugate of ``Hij``, grid block ``(i, j)`` in the apply's
        working dtype (:meth:`_local_work`): the C->B operand.

        The gemm for the C->B direction evaluates ``A.conj().T @ X``.
        For a real block the conjugate is the block; for a complex one
        it is a full copy, cached here: handing out the same array
        preserves the exact operand memory layout, so results stay
        bit-identical to the per-call temporary (which a config with
        dedup off still takes, as the seed did).  Keys carry the dtype,
        so a precision promote/demote can never hand back the conjugate
        of the wrong-width block.
        """
        if Hij.dtype.kind != "c":
            return Hij
        if not self.grid.cluster.config.numeric_dedup:
            return Hij.conj()
        key = (i, j, Hij.dtype.str)
        cached = self._hconj.get(key)
        if cached is None:
            cached = self._hconj[key] = Hij.conj()
        return cached

    def _stack_offsets(self) -> list[int]:
        """Cumulative colmap local sizes: row offsets of the stacked
        panels/operands (part ``j`` occupies ``[offs[j], offs[j+1])``)."""
        if self._offsets is None:
            offs = [0]
            for j in range(self.grid.q):
                offs.append(offs[-1] + self.H.colmap.local_size(j))
            self._offsets = offs
        return self._offsets

    def _row_panel(self, i: int, rdtype) -> np.ndarray:
        """``[H_i0 | ... | H_i,q-1]`` — the grid row's blocks, stacked.

        Cached per (row, dtype): a narrow apply stacks the cached
        work-dtype casts, a full-width apply the blocks themselves.
        """
        narrow = bytes_per_scalar(rdtype) < bytes_per_scalar(self.H.dtype)
        pdt = _NARROW[np.dtype(self.H.dtype)] if narrow else np.dtype(self.H.dtype)
        key = (i, pdt.str)
        P = self._panels.get(key)
        if P is None:
            P = self._panels[key] = np.hstack([
                np.asarray(self._local_work(i, j, rdtype))
                for j in range(self.grid.q)])
        return P

    def _row_panel_conj(self, i: int, rdtype) -> np.ndarray:
        """Elementwise conjugate of the fused row panel (complex C->B)."""
        P0 = self._row_panel(i, rdtype)
        if np.dtype(self.H.dtype).kind != "c":
            return P0
        key = (i, P0.dtype.str)
        P = self._panels_conj.get(key)
        if P is None:
            P = self._panels_conj[key] = P0.conj()
        return P

    def _scratch_arr(self, key: tuple, shape: tuple, dtype) -> np.ndarray:
        arr = self._scratch.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype=dtype)
            self._scratch[key] = arr
        return arr

    # -- entry point -------------------------------------------------------------
    def apply(
        self,
        X: DistributedMultiVector,
        cols: slice | None = None,
        *,
        alpha: float = 1.0,
        gamma: float = 0.0,
        out: DistributedMultiVector | None = None,
    ) -> DistributedMultiVector:
        """``alpha (H - gamma I) X[:, cols]`` in the *opposite* layout.

        Returns a new multivector of width ``stop - start`` whose layout
        is ``"B"`` when ``X`` is ``"C"`` and vice versa.  ``cols`` is a
        non-empty unit-step slice of ``X``'s columns (``None``: all).
        ``out`` is an optional preallocated aliased multivector of the
        result's layout/width whose storage receives the result (aliased
        inputs only; the returned multivector aliases it).  Incompatible
        ``out`` buffers are ignored.

        Every apply is the same three stages: the modeled **charges**
        (narrow H casts, then one :meth:`_charge_block` per charge
        class), the **numerics** (:meth:`_numerics`: the partial
        products and the reductions they need) and the **reductions**
        (one blocking allreduce per communicator).
        """
        grid, H = self.grid, self.H
        self._sync_caches()
        start, stop, step = (cols if cols is not None else slice(None)).indices(X.ne)
        if step != 1 or stop <= start:
            raise ValueError(
                f"column {cols} of a multivector with ne={X.ne} is not a "
                "non-empty unit-step range")
        cols, width = slice(start, stop), stop - start
        self.matvecs += width

        to_b = X.layout == "C"
        out_map = H.colmap if to_b else H.rowmap
        out_layout = "B" if to_b else "C"
        rdtype = _work_dtype(H.dtype, X.dtype)
        phantom = X.is_phantom or is_phantom(H.local(0, 0))
        dedup = X.aliased and not phantom
        out = self._usable_out(out, out_layout, out_map, width, rdtype) \
            if dedup else None

        # ---- (1) charges, in every rank's order: cast, GEMM, AXPYs, scale ----
        self._cast_work(rdtype)
        for members in self.classes():
            self._charge_block(members.k, *members.key, to_b, width,
                               alpha, gamma, rdtype)

        # ---- (2) numerics: uncharged ----
        rows, blocks, base = self._numerics(
            X, cols, width, to_b, alpha, gamma, out, rdtype, phantom, dedup)

        # ---- (3) reductions: sum the partials across the distributed axis ----
        for comm, bufs, shared, compute in rows:
            comm.allreduce(bufs, shared=shared, compute=compute)
        if blocks is None:  # fused C -> B: assembled from the summed slices
            blocks = self._fused_cb_blocks(
                [bufs[0] for _comm, bufs, _s, _c in rows], base, out)

        result = DistributedMultiVector(
            grid, out_map, out_layout, width, blocks, rdtype, aliased=dedup
        )
        result.stacked_base = base
        return result

    def _usable_out(self, out, out_layout, out_map, width, rdtype):
        """``out`` when it can receive the result, else ``None``."""
        if out is None or out.is_phantom or not out.aliased:
            return None
        if (
            out.layout != out_layout
            or out.ne != width
            or out.dtype != rdtype
            or out.index_map is not out_map
            or out.grid is not self.grid
        ):
            return None
        return out

    # -- stage 1: modeled charges ------------------------------------------------------
    def _charge_block(self, k: LocalKernels, i: int, j: int, to_b, width,
                      alpha, gamma, rdtype) -> None:
        """Issue grid block ``(i, j)``'s modeled charges into ``k``: the
        GEMM, overlap AXPYs and scale of ``alpha (H_ij - gamma I) X`` on
        phantom shape proxies (charges depend on shapes and dtypes
        only).  The H proxy carries the *working* dtype, so a narrow
        apply is charged on its cached narrow cast.  ``k`` is a charge
        class's kernel set: every member rank is charged.
        """
        hshape = tuple(self.H.local(i, j).shape)
        Xcols = PhantomArray((hshape[0 if to_b else 1], width), rdtype)
        W = k.gemm(PhantomArray(hshape, rdtype), Xcols,
                   op_a="C" if to_b else "N", kind="hemm")
        if gamma != 0.0:
            for rsl, csl in overlap_table(self.H.rowmap, self.H.colmap)[i][j]:
                if to_b:
                    k.axpy_into(W, csl, Xcols, rsl, -gamma)
                else:
                    k.axpy_into(W, rsl, Xcols, csl, -gamma)
        if alpha != 1.0:
            k.scale(W, alpha)

    # -- stage 2: numerics ---------------------------------------------------------------
    def _numerics(self, X, cols, width, to_b, alpha, gamma, out, rdtype,
                  phantom, dedup):
        """The partial products of one apply, by input kind, and the
        reductions that finish them: ``(rows, blocks, base)``.

        ``rows`` are the allreduces as ``(comm, buffers, shared,
        compute)`` — one per communicator of the input's distributed
        axis, the same sequence for every kind; ``blocks`` the result
        blocks once the rows are reduced (``None`` for fused C -> B,
        which :meth:`_fused_cb_blocks` assembles afterwards); ``base``
        the contiguous array the unique result blocks tile, if any.
        """
        grid = self.grid
        p, q = grid.p, grid.q
        base = out.stacked_base if out is not None else None
        fused = dedup and grid.cluster.config.hemm_fusion
        if fused and to_b:
            offs = self._stack_offsets()
            panels, base = self._fused_cb_panels(
                X, cols, width, alpha, gamma, out, rdtype)
            rows = [(grid.col_comm(j), [P[offs[j]:offs[j + 1]] for P in panels],
                     True, True) for j in range(q)]
            blocks = None
        elif fused:
            # the sum over j already happened in the GEMM's k-dimension:
            # the row allreduces only charge the model
            tgts = self._fused_bc_targets(
                X, cols, width, alpha, gamma, out, rdtype)
            rows = [(grid.row_comm(i), [tgts[i]] * q, False, False)
                    for i in range(p)]
            blocks = {(i, j): tgts[i] for i in range(p) for j in range(q)}
        else:
            if phantom:
                # shape proxies, one per charge class: O(classes) per apply
                partials = {}
                for members in self.classes():
                    hshape = self.H.local(*members.key).shape
                    partials.update(dict.fromkeys(members.keys, PhantomArray(
                        (hshape[1 if to_b else 0], width), rdtype)))
            else:
                partials = self._block_partials(
                    X, cols, width, to_b, alpha, gamma, out, rdtype,
                    persistent=not dedup)
            rows = [(comm, [partials[key] for key in keys], dedup, True)
                    for comm, keys in X.comm_groups()]
            # an aliased input reduces into the root partial, which every
            # replica slot of the result then aliases; a plain one keeps
            # every (in place reduced) partial
            blocks = partials if not dedup else {
                (i, j): partials[(0, j) if to_b else (i, 0)]
                for i in range(p) for j in range(q)}
        return rows, blocks, base

    def _fused_cb_panels(self, X, cols, width, alpha, gamma, out, rdtype):
        """C -> B partial panels: per row ``i`` one ``(sum n_c) x width``
        panel of all ``q`` partial products; the column allreduces then
        sum the panel row-slices exactly as the per-block kind sums W_ij."""
        p = self.grid.p
        offs = self._stack_offsets()
        overlaps = overlap_table(self.H.rowmap, self.H.colmap)
        base = None
        if out is not None and out.stacked_base is not None \
                and out.stacked_base.shape == (offs[-1], width) \
                and out.stacked_base.dtype == rdtype:
            base = out.stacked_base
        panels = []
        for i in range(p):
            P = self._row_panel_conj(i, rdtype)
            if i == 0:
                tgt = base if base is not None \
                    else np.empty((offs[-1], width), rdtype)
            else:
                tgt = self._scratch_arr(("cb", i), (offs[-1], width), rdtype)
            pairs_i = list(enumerate(overlaps[i])) if gamma != 0.0 else None
            panels.append(panel_cb_numeric(
                P, X.local(i, 0), cols, pairs_i, gamma, alpha, offs, out=tgt))
        return panels, base

    def _fused_cb_blocks(self, roots, base, out):
        """Assemble the C -> B result blocks from the summed row-slices
        ``roots`` (one per grid column)."""
        p, q = self.grid.p, self.grid.q
        if out is not None and base is None:
            # out exists but is not slice-contiguous: land the
            # summed slices in its storage
            for j in range(q):
                out.blocks[(0, j)][...] = roots[j]
                roots[j] = out.blocks[(0, j)]
        return {(i, j): roots[j] for i in range(p) for j in range(q)}

    def _fused_bc_targets(self, X, cols, width, alpha, gamma, out, rdtype):
        """B -> C fused numerics: stack the q unique input blocks once,
        contract them with the cached row panel in one GEMM per row —
        the reduction sum lives in the GEMM's k-dimension."""
        p, q = self.grid.p, self.grid.q
        offs = self._stack_offsets()
        overlaps = overlap_table(self.H.rowmap, self.H.colmap)
        Bstack = self._scratch_arr(("bstack",), (offs[-1], width), rdtype)
        for j in range(q):
            Bstack[offs[j]:offs[j + 1], :] = X.local(0, j)[:, cols]
        tgts = []
        for i in range(p):
            P = self._row_panel(i, rdtype)
            if out is not None:
                tgt = out.blocks[(i, 0)]
            else:
                tgt = np.empty((P.shape[0], width), rdtype)
            pairs_i = list(enumerate(overlaps[i])) if gamma != 0.0 else None
            tgts.append(panel_bc_numeric(
                P, Bstack, pairs_i, gamma, alpha, offs, out=tgt))
        return tgts

    def _block_partials(self, X, cols, width, to_b, alpha, gamma, out, rdtype,
                        *, persistent: bool = False):
        """Seed-granularity partial products, one per grid block.

        Same operands, same operation order as the seed (row-major block
        order), root targets landing in ``out``'s storage when provided.
        ``persistent=True`` allocates every partial fresh (instead of
        recycling the scratch workspace for non-roots) — required when
        the partials themselves become the result blocks (plain,
        non-aliased inputs).
        """
        H = self.H
        overlaps = overlap_table(H.rowmap, H.colmap)
        partials = {}
        for i in range(self.grid.p):
            for j in range(self.grid.q):
                Hij = self._local_work(i, j, rdtype)
                # C -> B contracts with the conjugate's transpose (the
                # .T is taken inside the kernel, free)
                Hop = self._h_conj(i, j, Hij) if to_b else Hij
                shape = (Hij.shape[1 if to_b else 0], width)
                root = (0, j) if to_b else (i, 0)
                if (i, j) == root and out is not None:
                    tgt = out.blocks[root]
                elif (i, j) == root or persistent:
                    tgt = np.empty(shape, rdtype)
                else:
                    tgt = self._scratch_arr(("pb", i, j), shape, rdtype)
                pairs = overlaps[i][j] if gamma != 0.0 else None
                partials[(i, j)] = block_numeric(
                    Hop, to_b, X.local(i, j), cols, pairs, gamma, alpha,
                    to_b, out=tgt)
        return partials
