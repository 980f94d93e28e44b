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

Which numeric path an apply takes is decided per call from the
multivector it is handed (aliased or not, phantom or not) and from the
cluster's :class:`~repro.runtime.config.ExecutionConfig` (DESIGN.md,
"Execution configuration"); every path issues the same per-rank
modeled charges in the same order, so clocks, tracer and CommStats do
not depend on the choice.  The fused-panel path matches the per-block
arithmetic to rounding (``<= 1e-13 * ||H||``, asserted by
``tests/test_fused_hemm.py``), not bit for bit: BLAS tiles the wider
fused m-dimension with different SIMD tail kernels, and B->C folds the
q-term reduction sum into the GEMM's k-loop.

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

from repro.arrays import PhantomArray, is_phantom, nbytes_of
from repro.distributed.block import overlap_table
from repro.distributed.hermitian import DistributedHermitian
from repro.distributed.multivector import DistributedMultiVector
from repro.perfmodel.kernels import bytes_per_scalar
from repro.runtime.clock import CostCategory
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


def _chunk_edges(width: int, n_chunks: int) -> list[int]:
    """Split ``width`` columns into ``n_chunks`` near-equal chunks."""
    n_chunks = max(1, min(n_chunks, width))
    return [c * width // n_chunks for c in range(n_chunks + 1)]


def _chunk_view(buf, sl: slice):
    """Column-chunk view of a partial buffer (phantoms shape-sliced)."""
    if is_phantom(buf):
        return buf.cols(sl.start, sl.stop)
    return buf[:, sl]


# -- numeric kernels of the decoupled (charge first, then compute) paths ------------

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
        #: per-key reusable workspace of the decoupled paths (partial
        #: products and the stacked-B operand; never escapes an apply)
        self._scratch: dict[tuple, np.ndarray] = {}
        #: full-width per-rank apply times for the pipelined path
        self._apply_time_cache: dict[tuple, tuple] = {}
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
            self._apply_time_cache.clear()
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
        no-op for the seed, full-width, path and once built).

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

    def _h_conj(self, i: int, j: int, rdtype=None):
        """Work-dtype ``H`` block conjugate, cached for complex numerics.

        The gemm for the C->B direction evaluates ``A.conj().T @ X``;
        caching the ``.conj()`` (a per-call full copy for complex
        dtypes) and handing out the same array preserves the exact
        operand memory layout, so results stay bit-identical to the
        uncached path.  With a narrow ``rdtype`` the conjugate is taken
        of the cached narrow cast; keys carry the dtype so a precision
        promote/demote can never hand back the wrong-width block.
        """
        Hij = self.H.local(i, j) if rdtype is None \
            else self._local_work(i, j, rdtype)
        if is_phantom(Hij) or np.dtype(self.H.dtype).kind != "c":
            return None  # .conj() is free (a view) for real ndarrays
        if not self.grid.cluster.config.numeric_dedup:
            return None
        key = (i, j, np.dtype(Hij.dtype).str)
        cached = self._hconj.get(key)
        if cached is None:
            cached = Hij.conj()
            self._hconj[key] = cached
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

    def _row_panel(self, i: int, rdtype=None) -> np.ndarray:
        """``[H_i0 | ... | H_i,q-1]`` — the grid row's blocks, stacked.

        Cached per (row, dtype): a narrow apply stacks the cached
        work-dtype casts, a full-width apply the blocks themselves.
        """
        rdt = np.dtype(rdtype if rdtype is not None else self.H.dtype)
        narrow = bytes_per_scalar(rdt) < bytes_per_scalar(self.H.dtype)
        pdt = _NARROW[np.dtype(self.H.dtype)] if narrow else np.dtype(self.H.dtype)
        key = (i, pdt.str)
        P = self._panels.get(key)
        if P is None:
            blocks = [
                np.asarray(self._local_work(i, j, rdt))
                for j in range(self.grid.q)
            ]
            P = np.hstack(blocks)
            self._panels[key] = P
        return P

    def _row_panel_conj(self, i: int, rdtype=None) -> np.ndarray:
        """Elementwise conjugate of the fused row panel (complex C->B)."""
        if np.dtype(self.H.dtype).kind != "c":
            return self._row_panel(i, rdtype)
        P0 = self._row_panel(i, rdtype)
        key = (i, P0.dtype.str)
        P = self._panels_conj.get(key)
        if P is None:
            P = P0.conj()
            self._panels_conj[key] = P
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
        pipeline: bool = False,
    ) -> DistributedMultiVector:
        """``alpha (H - gamma I) X[:, cols]`` in the *opposite* layout.

        Returns a new multivector of width ``stop - start`` whose layout
        is ``"B"`` when ``X`` is ``"C"`` and vice versa.  ``out`` is an
        optional preallocated aliased multivector of the result's
        layout/width whose storage receives the result (dedup mode
        only; the returned multivector aliases it).  Incompatible
        ``out`` buffers are ignored.

        ``pipeline=True`` marks the call as pipeline-eligible (the
        Chebyshev filter hot path); when the cluster's config also sets
        ``pipeline_chunks``, the apply runs the chunked nonblocking path
        (:meth:`_apply_pipelined`, DESIGN.md §5d).
        """
        grid = self.grid
        H = self.H
        cfg = grid.cluster.config
        self._sync_caches()
        cols = cols if cols is not None else slice(0, X.ne)
        width = (cols.stop if cols.stop is not None else X.ne) - (cols.start or 0)
        if width <= 0:
            raise ValueError("empty column slice")
        self.matvecs += width

        to_b = X.layout == "C"
        out_map = H.colmap if to_b else H.rowmap
        out_layout = "B" if to_b else "C"
        rdtype = _work_dtype(H.dtype, X.dtype)

        phantom = X.is_phantom or is_phantom(H.local(0, 0))
        dedup = X.aliased and not phantom
        fused = dedup and cfg.hemm_fusion
        if pipeline and cfg.pipeline_chunks and width >= 2:
            return self._apply_pipelined(
                X, cols, width, to_b, alpha, gamma, out, dedup, fused, rdtype,
            )
        self._cast_work(rdtype)
        if dedup and (fused or out is not None):
            return self._apply_decoupled(
                X, cols, width, to_b, alpha, gamma, out, fused, rdtype,
            )

        def partial_product(k: LocalKernels, key):
            return self._block_product(
                k, *key, self._local_work(*key, rdtype),
                X.local_cols(key, cols.start, cols.stop), to_b, alpha, gamma,
                self._h_conj(*key, rdtype) if to_b else None)

        # one charge sequence per class reaches every member rank; the
        # partial products are unique work, computed once per rank
        contrib = grid.charged_map(
            self.classes(), partial_product, phantom=phantom)

        # reduction: sum the partial products across the distributed axis.
        # With an aliased (dedup) input the result is summed once per
        # communicator and the shared ndarray aliased into every replica.
        for comm, keys in X.comm_groups():
            res = comm.allreduce([contrib[key] for key in keys], shared=dedup)
            if dedup:
                contrib.update(dict.fromkeys(keys, res[0]))

        return DistributedMultiVector(
            grid, out_map, out_layout, width, contrib, rdtype, aliased=dedup
        )

    # -- decoupled charge / numeric execution -------------------------------------
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

    def _block_product(self, k: LocalKernels, i: int, j: int, Hij, Xcols,
                       to_b, alpha, gamma, Hc=None):
        """Grid block ``(i, j)``'s share ``alpha (H_ij - gamma I) X`` of one
        apply — GEMM, overlap AXPYs, scale — through the kernel set ``k``.
        ``Hc`` is the cached conjugate of a complex ``Hij`` (C -> B)."""
        if Hc is not None:
            # same flops/charge as op_a="C" (gemm_flops is symmetric in
            # the m/k swap); operand layout matches the per-call
            # Hij.conj() temporary
            W = k.gemm(Hc.T, Xcols, op_a="N", kind="hemm")
        else:
            W = k.gemm(Hij, Xcols, op_a="C" if to_b else "N", kind="hemm")
        if gamma != 0.0:
            for rsl, csl in overlap_table(self.H.rowmap, self.H.colmap)[i][j]:
                if to_b:
                    k.axpy_into(W, csl, Xcols, rsl, -gamma)
                else:
                    k.axpy_into(W, rsl, Xcols, csl, -gamma)
        if alpha != 1.0:
            W = k.scale(W, alpha)
        return W

    def _charge_block(self, k: LocalKernels, i: int, j: int, to_b, width,
                      alpha, gamma, rdtype) -> None:
        """Issue grid block ``(i, j)``'s modeled charges into ``k``:
        :meth:`_block_product` on phantom shape proxies (charges depend
        on shapes and dtypes only).  The H proxy carries the *working*
        dtype, so a narrow apply is charged on its cached narrow cast.
        ``k`` is a charge class's kernel set (the charge-first pass of
        :meth:`_apply_decoupled`: every member rank is charged) or a
        capturing one (:meth:`_apply_times`).
        """
        hshape = tuple(self.H.local(i, j).shape)
        self._block_product(
            k, i, j, PhantomArray(hshape, rdtype),
            PhantomArray((hshape[0 if to_b else 1], width), rdtype),
            to_b, alpha, gamma)

    def _apply_decoupled(self, X, cols, width, to_b, alpha, gamma, out, fused,
                         rdtype):
        """Charge-first, compute-second execution of an aliased apply.

        Pass 1 issues every rank's modeled charges in the seed's per-rank
        order (:meth:`_charge_block`).  Pass 2 runs the pure numeric
        kernels (per block, or fused per grid row) and the reductions.
        Clocks, tracer and CommStats therefore see the byte-identical
        sequence of every other path.
        """
        grid, H = self.grid, self.H
        out_map = H.colmap if to_b else H.rowmap
        out_layout = "B" if to_b else "C"
        out = self._usable_out(out, out_layout, out_map, width, rdtype)

        # ---- pass 1: modeled charges, one sequence per charge class ----
        for members in self.classes():
            self._charge_block(members.k, *members.key, to_b, width,
                               alpha, gamma, rdtype)

        # ---- pass 2: numerics + reductions ----
        if fused:
            blocks, base = self._numeric_fused(
                X, cols, width, to_b, alpha, gamma, out, rdtype
            )
        else:
            blocks, base = self._numeric_per_block(
                X, cols, width, to_b, alpha, gamma, out, rdtype
            )
        result = DistributedMultiVector(
            grid, out_map, out_layout, width, blocks, rdtype, aliased=True
        )
        result.stacked_base = base
        return result

    def _numeric_fused(self, X, cols, width, to_b, alpha, gamma, out, rdtype):
        """Fused-panel numerics: one GEMM per grid row."""
        grid = self.grid
        p, q = grid.p, grid.q
        offs = self._stack_offsets()

        if to_b:
            panels, base = self._fused_cb_panels(
                X, cols, width, alpha, gamma, out, rdtype
            )
            roots = {}
            for j in range(q):
                bufs = [panels[i][offs[j]:offs[j + 1]] for i in range(p)]
                res = grid.col_comm(j).allreduce(bufs, shared=True)
                roots[j] = res[0]
            blocks = self._fused_cb_blocks(roots, base, out)
            return blocks, base

        tgts = self._fused_bc_targets(
            X, cols, width, alpha, gamma, out, rdtype
        )
        for i in range(p):
            grid.row_comm(i).allreduce([tgts[i]] * q, compute=False)
        blocks = {(i, j): tgts[i] for i in range(p) for j in range(q)}
        base = out.stacked_base if out is not None else None
        return blocks, base

    def _fused_cb_panels(self, X, cols, width, alpha, gamma, out, rdtype):
        """C -> B partial panels: per row ``i`` one ``(sum n_c) x width``
        panel of all ``q`` partial products; the column allreduces then
        sum the panel row-slices exactly as the seed path sums W_ij."""
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
        """Assemble the C -> B result blocks from the summed row-slices."""
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
        the reduction sum lives in the GEMM's k-dimension, so the row
        allreduces only charge the model."""
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

        Arithmetic identical to the seed path (same operands, same
        operation order, row-major block order), root targets landing
        in ``out``'s storage when provided.  ``persistent=True``
        allocates every partial fresh (instead of recycling the scratch
        workspace for non-roots) — required when the partials themselves
        become the result blocks (non-aliased pipelined applies).
        """
        grid, H = self.grid, self.H
        p, q = grid.p, grid.q
        overlaps = overlap_table(H.rowmap, H.colmap)
        complex_h = np.dtype(H.dtype).kind == "c"
        partials = {}
        for i in range(p):
            for j in range(q):
                Hij = self._local_work(i, j, rdtype)
                if to_b:
                    if complex_h:
                        # cached conj for complex (exact seed operand
                        # layout); falls back to the per-call conj
                        # temporary when the config turns dedup off
                        Hc = self._h_conj(i, j, rdtype)
                        Hop = Hc if Hc is not None else Hij.conj()
                    else:
                        Hop = Hij  # .T inside the kernel, free for real blocks
                    trans = True
                    rows = Hij.shape[1]
                    is_root = i == 0
                    root = (0, j)
                else:
                    Hop = Hij
                    trans = False
                    rows = Hij.shape[0]
                    is_root = j == 0
                    root = (i, 0)
                if is_root and out is not None:
                    tgt = out.blocks[root]
                elif is_root or persistent:
                    tgt = np.empty((rows, width), rdtype)
                else:
                    tgt = self._scratch_arr(("pb", i, j), (rows, width), rdtype)
                pairs = overlaps[i][j] if gamma != 0.0 else None
                partials[(i, j)] = block_numeric(
                    Hop, trans, X.local(i, j), cols, pairs, gamma, alpha,
                    to_b, out=tgt)
        return partials

    def _numeric_per_block(self, X, cols, width, to_b, alpha, gamma, out, rdtype):
        """Seed-granularity numerics (partials + shared reductions).

        Used when fusion is off but an ``out`` buffer is in play.
        """
        partials = self._block_partials(
            X, cols, width, to_b, alpha, gamma, out, rdtype
        )
        blocks = {}
        for comm, keys in X.comm_groups():
            res = comm.allreduce([partials[key] for key in keys], shared=True)
            blocks.update(dict.fromkeys(keys, res[0]))
        base = out.stacked_base if out is not None else None
        return blocks, base

    # -- pipelined (chunked nonblocking) execution -----------------------------------
    def _apply_times(self, to_b, width, alpha, gamma, rdtype) -> tuple:
        """Full-width COMPUTE time of one apply on every rank, in model
        seconds: ``(rank ids, seconds)``, two aligned tuples.

        Replays each charge class's charge sequence
        (:meth:`_charge_block`) into a capturing kernel set instead of
        the rank clocks.  The pipelined tier then charges each chunk the
        exact fraction ``chunk_width / width`` of this total: a
        chunk-width GEMM would otherwise pay the launch overhead again
        and run lower on the efficiency ramp, i.e. chunking itself would
        inflate COMPUTE (the model assumes the chunked kernels are
        stream-captured and amortize their launches).

        Times are pre-slowdown (``VirtualCluster.charge`` applies the
        straggler multiplier at charge time, as the blocking path does)
        and cached per (direction, width, shift/scale presence).
        """
        key = (to_b, width, gamma != 0.0, alpha != 1.0, np.dtype(rdtype).str,
               self.H.version)
        cached = self._apply_time_cache.get(key)
        if cached is None:
            ids: list[int] = []
            times: list[float] = []
            for members in self.classes():
                acc: list[float] = []
                k = LocalKernels(members.k.model, acc.append)
                self._charge_block(k, *members.key, to_b, width, alpha, gamma,
                                   rdtype)
                ids.extend(members.ids)
                times.extend([sum(acc)] * len(members.ids))
            cached = self._apply_time_cache[key] = (tuple(ids), tuple(times))
        return cached

    def _apply_pipelined(self, X, cols, width, to_b, alpha, gamma, out,
                         dedup, fused, rdtype):
        """Chunked nonblocking execution of an apply (DESIGN.md §5d).

        The width-wide block is split into the config's
        ``pipeline_chunks`` column chunks.  Each
        iteration charges chunk *k*'s HEMM compute, waits chunk *k-1*'s
        allreduce — whose duration therefore hides behind chunk *k*'s
        compute up to the communicator's overlap efficiency — and then
        issues chunk *k*'s nonblocking allreduce (software pipeline of
        depth one).  Every chunk charge (compute, collective duration,
        host staging) is the exact fraction ``chunk_width / width`` of
        the corresponding *blocking* full-width charge
        (:meth:`_apply_times`): chunking redistributes the blocking
        cost over time without inflating it, so the pipelined makespan
        differs from blocking only by the overlap the model grants.

        The numerics run at **full width** before the model loop, with
        the active tier's exact arithmetic (chunk-width GEMMs would tile
        differently in BLAS and perturb last-ulp bits); the chunked
        reductions then sum real column-slice views with the blocking
        accumulation order, so every element sees the identical
        operation sequence and results are bit-identical to blocking
        mode.  Chunk payloads sum exactly to the blocking byte count;
        only the collective/message *counts* grow by the chunk factor.
        """
        grid, H = self.grid, self.H
        p, q = grid.p, grid.q
        out_map = H.colmap if to_b else H.rowmap
        out_layout = "B" if to_b else "C"
        phantom = X.is_phantom or is_phantom(H.local(0, 0))
        out = self._usable_out(out, out_layout, out_map, width, rdtype)
        offs = self._stack_offsets()
        if not phantom:
            # charged when the numerics below first touch the narrow
            # blocks; a phantom replay has no numerics and has never
            # charged the casts (pinned by tests/test_model_fingerprint.py)
            self._cast_work(rdtype)

        # ---- full-width numerics (uncharged; the model loop below charges) ----
        base = None
        blocks = None
        if phantom:
            blocks = DistributedMultiVector.zeros(
                grid, out_map, out_layout, width, rdtype, True).blocks
            groups = [(comm, [blocks[key] for key in keys], False, True)
                      for comm, keys in X.comm_groups()]
            aliased = False
        elif fused and to_b:
            panels, base = self._fused_cb_panels(
                X, cols, width, alpha, gamma, out, rdtype
            )
            groups = [
                (grid.col_comm(j),
                 [panels[i][offs[j]:offs[j + 1]] for i in range(p)],
                 True, True)
                for j in range(q)
            ]
            aliased = True
        elif fused:
            tgts = self._fused_bc_targets(
                X, cols, width, alpha, gamma, out, rdtype
            )
            groups = [
                (grid.row_comm(i), [tgts[i]] * q, False, False)
                for i in range(p)
            ]
            blocks = {(i, j): tgts[i] for i in range(p) for j in range(q)}
            base = out.stacked_base if out is not None else None
            aliased = True
        else:
            partials = self._block_partials(
                X, cols, width, to_b, alpha, gamma,
                out if dedup else None, rdtype, persistent=not dedup,
            )
            groups = [(comm, [partials[key] for key in keys], dedup, True)
                      for comm, keys in X.comm_groups()]
            if dedup:
                blocks = {
                    (i, j): partials[(0, j) if to_b else (i, 0)]
                    for i in range(p) for j in range(q)
                }
                base = out.stacked_base if out is not None else None
            else:
                blocks = dict(partials)
            aliased = dedup

        # ---- chunked model loop: charge k, wait k-1, issue k ----
        edges = _chunk_edges(width, grid.cluster.config.pipeline_chunks)
        ids, times = self._apply_times(to_b, width, alpha, gamma, rdtype)
        group_cost = []
        for comm, bufs, _s, _c in groups:
            nb_full = float(nbytes_of(bufs[0]))
            # routed through the communicator's selected collective
            # algorithm/topology so chunked charges match blocking ones
            d_full = comm.collective_time("allreduce", nb_full)
            st_full = (comm.machine.pcie.time(nb_full)
                       if comm.backend.stages_through_host else 0.0)
            group_cost.append((d_full, st_full))
        in_flight: list = []
        for c in range(len(edges) - 1):
            sl = slice(edges[c], edges[c + 1])
            frac = (sl.stop - sl.start) / width
            grid.cluster.charge(
                ids, CostCategory.COMPUTE, [t * frac for t in times])
            for req in in_flight:
                req.wait()
            in_flight = [
                comm.iallreduce(
                    [_chunk_view(b, sl) for b in bufs],
                    shared=shared, compute=compute,
                    duration=d_full * frac,
                    stage_seconds=(st_full * frac) if st_full > 0.0 else None,
                )
                for (comm, bufs, shared, compute), (d_full, st_full)
                in zip(groups, group_cost)
            ]
        for req in in_flight:
            req.wait()

        if blocks is None:  # fused C -> B: assemble after the reduction
            roots = {j: panels[0][offs[j]:offs[j + 1]] for j in range(q)}
            blocks = self._fused_cb_blocks(roots, base, out)

        result = DistributedMultiVector(
            grid, out_map, out_layout, width, blocks, rdtype, aliased=aliased
        )
        if aliased:
            result.stacked_base = base
        return result
