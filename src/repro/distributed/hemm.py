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

Every apply (:meth:`DistributedHemm.apply`) is its **charge** — a
function of its signature alone (direction, width, ``alpha != 1``,
``gamma != 0``, working dtype): the GEMM / overlap AXPYs / scale per
charge class, recorded once and replayed as whole-grid steps (DESIGN.md
§5j), then the control plane of one grouped blocking allreduce on the
communicators of the distributed axis, sized from the index maps — and
its uncharged **compute**: the numerics, then the reduction's data
movement.  An :class:`Operand` (every apply of a phantom replay) has
no compute.  The numerics know three input kinds (DESIGN.md §5c): fused
C -> B (``panel_cb_numeric``), fused B -> C (``panel_bc_numeric``,
nothing to move) and per block (``block_numeric``).

The fused-panel kernels match the per-block arithmetic to rounding
(``<= 1e-13 * ||H||``, asserted by ``tests/test_fused_hemm.py``): BLAS
tiles the wider fused m-dimension with different SIMD tail kernels, and
B->C folds the q-term reduction sum into the GEMM's k-loop.  The
result is one array whose parts are views (DESIGN.md §5b): the
reduction sums into them in place, once per communicator.  ``H`` is
immutable, so its complex conjugate and its narrow cast are each one
whole-array op, made once and kept for the HEMM's lifetime; a fused row
panel ``[H_i0 | ... | H_i,q-1]`` is the contiguous view ``H[rows_i, :]``
and a block ``H_ij`` a strided one.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.arrays import PhantomArray
from repro.distributed.block import overlap_table
from repro.distributed.hermitian import DistributedHermitian
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.perfmodel.kernels import bytes_per_scalar
from repro.runtime.device import LocalKernels, axpy_into_numeric, cast_numeric

__all__ = ["DistributedHemm"]

# single-precision counterpart of each double-precision result dtype
_NARROW = {
    np.dtype(np.float64): np.dtype(np.float32),
    np.dtype(np.complex128): np.dtype(np.complex64),
}


@functools.lru_cache(maxsize=None)
def _work_dtype(h_dtype, x_dtype) -> np.dtype:
    """Result dtype of one apply: ``np.result_type``, except that a
    *narrow* input (the mixed-precision filter's, DESIGN.md §5g) keeps
    the whole apply narrow — H is cast down, not the input promoted
    (memoised: a phantom replay asks once per apply)."""
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
    """Per-block partial product of one grid block."""
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
        #: the forms of H the numerics work on, by (narrow, conjugated)
        #: (:meth:`_form`)
        self._forms: dict[tuple[bool, bool], tuple] = {}
        self._cast_charged = False
        #: per-key reusable workspace of the numerics (non-root partial
        #: products; never escapes an apply)
        self._scratch: dict[tuple, np.ndarray] = {}
        #: part heights of the row and column maps: the reduction payloads
        self._heights = tuple(
            tuple(m.local_size(k) for k in range(m.parts))
            for m in (H.rowmap, H.colmap))
        #: row offsets of the column map's parts: part ``j`` is
        #: [offs[j], offs[j+1]) of a row panel
        self._offsets = [0, *itertools.accumulate(self._heights[1])]
        self._classes = None

    # -- caches -----------------------------------------------------------------
    def classes(self):
        """The grid ranks grouped by what an apply's charges depend on:
        the H block's shape and the lengths of its row/column overlaps
        (the grid's table, held from the first call)."""
        if self._classes is None:
            H, (rows, cols) = self.H, self._heights

            def signatures():
                overlaps = overlap_table(H.rowmap, H.colmap)
                return [(rows[i], cols[j],
                         tuple([r.stop - r.start for r, _c in overlaps[i][j]]))
                        for i in range(len(rows)) for j in range(len(cols))]
            self._classes = self.grid.charge_classes(
                (H.rowmap, H.colmap), signatures)
        return self._classes

    def _narrow(self, rdtype) -> bool:
        """Whether an apply of result dtype ``rdtype`` works on H's
        narrow cast (the mixed-precision filter's, DESIGN.md §5g)."""
        return bytes_per_scalar(rdtype) < bytes_per_scalar(self.H.dtype)

    def _cast_work(self) -> None:
        """Charge every rank one :meth:`LocalKernels.cast` of its block's
        shape ahead of its first narrow GEMM, once per HEMM; the model
        keeps the copy resident (``chase_new_scheme_bytes``)."""
        if self._cast_charged:
            return
        self._cast_charged = True
        wdt = _NARROW[np.dtype(self.H.dtype)]
        for members in self.classes():
            members.k.cast(PhantomArray(self._block_shape(*members.key),
                                        self.H.dtype), wdt)

    def _form(self, narrow: bool, conj: bool) -> tuple:
        """H as an apply works on it — cast narrow when ``narrow``,
        conjugated when ``conj`` (C -> B) and complex — as ``(A, row
        panels A[rows_i, :], grid blocks A[rows_i, cols_j])``, the panels
        and blocks views of the one array ``A``.  Each form is one
        whole-array op on the one before it, made once and kept for the
        HEMM's lifetime."""
        conj = conj and self.H.dtype.kind == "c"
        form = self._forms.get((narrow, conj))
        if form is None:
            H = self.H
            if conj:
                A = self._form(narrow, False)[0].conj()
            elif narrow:
                A = cast_numeric(H.data, _NARROW[np.dtype(H.dtype)])
            else:
                A = H.data
            form = self._forms[(narrow, conj)] = (
                A, [A[slice(*H.rowmap.range_of(i))] for i in range(self.grid.p)],
                H.blocks if A is H.data else H.tiles(A))
        return form

    def _scratch_arr(self, key: tuple, shape: tuple, dtype) -> np.ndarray:
        arr = self._scratch.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype=dtype)
            self._scratch[key] = arr
        return arr

    # -- entry points ------------------------------------------------------------
    def apply(
        self,
        X: DistributedMultiVector | Operand,
        cols: slice | None = None,
        *,
        alpha: float = 1.0,
        gamma: float = 0.0,
        out: DistributedMultiVector | None = None,
    ) -> DistributedMultiVector | Operand:
        """``alpha (H - gamma I) X[:, cols]`` in the *opposite* layout.

        ``cols`` is a non-empty unit-step slice of ``X``'s columns
        (``None``: all).  ``out``, a numeric multivector of the result's
        layout and width, receives the result and is returned when
        compatible.  The apply is its :meth:`_charge`, then, but for an
        :class:`Operand` (which yields the product's), its uncharged
        :meth:`_compute`.
        """
        cols, width = self._columns(X, cols)
        rdtype = _work_dtype(self.H.dtype, X.dtype)
        self._charge(X.layout == "C", width, alpha != 1.0, gamma != 0.0,
                     rdtype)
        if type(X) is Operand:
            to_b = X.layout == "C"
            return Operand("B" if to_b else "C", width, rdtype,
                           self.H.colmap if to_b else self.H.rowmap)
        return self._compute(X, cols, width, rdtype, alpha, gamma, out)

    def _charge(self, to_b: bool, width: int, scaled: bool, shifted: bool,
                rdtype) -> None:
        """The modeled charges of an apply of this signature, in every
        rank's order and without operands: the narrow H casts (once),
        :meth:`_charge_block` per class as recorded whole-grid steps,
        then the grouped allreduce's control plane on the distributed
        axis, sized from the output map.  Counts the MatVecs."""
        grid = self.grid
        self.matvecs += width
        if self._narrow(rdtype):
            self._cast_work()
        axis, heights = (grid.col_comms, self._heights[1]) if to_b \
            else (grid.row_comms, self._heights[0])
        row_bytes = width * rdtype.itemsize
        grid.replay(self.classes(), lambda k, key: self._charge_block(
            k, *key, to_b, width, scaled, shifted, rdtype),
            ("hemm", to_b, width, scaled, shifted, rdtype),
            (axis, lambda: [float(h * row_bytes) for h in heights]))

    def _compute(self, X, cols, width, rdtype, alpha, gamma, out):
        """:meth:`apply` without its charges: the numerics into the
        result's one array, then the reduction's data movement."""
        grid, H = self.grid, self.H
        to_b = X.layout == "C"
        out_map = H.colmap if to_b else H.rowmap
        out_layout = "B" if to_b else "C"
        out = self._usable_out(out, out_layout, out_map, width, rdtype)
        if out is None:
            out = DistributedMultiVector(grid, out_map, out_layout, np.empty(
                (out_map.N, width), rdtype))
        bufs = self._numerics(X, cols, width, to_b, alpha, gamma, out,
                              self._narrow(rdtype))
        axis = grid.col_comms if to_b else grid.row_comms
        axis.allreduce_move(bufs)
        return out

    @staticmethod
    def _columns(X, cols) -> tuple[slice, int]:
        """``cols`` of ``X`` as a unit-step slice, and its width."""
        start, stop, step = (cols if cols is not None else slice(None)).indices(X.ne)
        if step != 1 or stop <= start:
            raise ValueError(
                f"column {cols} of a multivector with ne={X.ne} is not a "
                "non-empty unit-step range")
        return slice(start, stop), stop - start

    def _usable_out(self, out, out_layout, out_map, width, rdtype):
        """``out`` when it can receive the result, else ``None``."""
        if out is None:
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

    # -- the charges ------------------------------------------------------------
    def _block_shape(self, i: int, j: int) -> tuple[int, int]:
        """The shape of ``H``'s block ``(i, j)``, read from the maps."""
        return self._heights[0][i], self._heights[1][j]

    def _charge_block(self, k: LocalKernels, i: int, j: int, to_b, width,
                      scaled, shifted, rdtype) -> None:
        """Issue grid block ``(i, j)``'s modeled charges into ``k``: the
        GEMM, overlap AXPYs (``shifted``) and scale (``scaled``) of
        ``alpha (H_ij - gamma I) X`` on shape proxies of the *working*
        dtype — a narrow apply is charged on its cached narrow cast."""
        hshape = self._block_shape(i, j)
        xrows, wrows = hshape if to_b else hshape[::-1]
        W = PhantomArray((wrows, width), rdtype)
        k.gemm(PhantomArray(hshape, rdtype),
               PhantomArray((xrows, width), rdtype),
               op_a="C" if to_b else "N", kind="hemm")
        if shifted:
            for rsl, csl in overlap_table(self.H.rowmap, self.H.colmap)[i][j]:
                k.axpy_into(W, csl if to_b else rsl)
        if scaled:
            k.scale(W)

    # -- the numerics -----------------------------------------------------------
    def _numerics(self, X, cols, width, to_b, alpha, gamma, out, narrow):
        """The partial products of one numeric apply, by input kind, the
        reducing ones landing in ``out``'s parts: returns the buffer
        lists the reduction sums on the distributed axis."""
        grid = self.grid
        _A, panels, blocks = self._form(narrow, to_b)
        overlaps = overlap_table(self.H.rowmap, self.H.colmap)
        offs = self._offsets
        if grid.cluster.config.hemm_fusion and to_b:
            # per grid row one (sum n_c) x width panel of all q partial
            # products; the column allreduces sum the panels' row slices
            # exactly as the per-block kind sums W_ij
            sums = []
            for i, P in enumerate(panels):
                tgt = out.data if i == 0 else self._scratch_arr(
                    ("cb", i), out.data.shape, out.dtype)
                pairs_i = list(enumerate(overlaps[i])) if gamma != 0.0 else None
                sums.append(panel_cb_numeric(
                    P, X.local(i, 0), cols, pairs_i, gamma, alpha, offs,
                    out=tgt))
            return [[S[offs[j]:offs[j + 1]] for S in sums]
                    for j in range(grid.q)]
        if grid.cluster.config.hemm_fusion:
            # B -> C: the stacked input is X's array, and the sum over j
            # happens in the GEMM's k-dimension: the row communicators
            # move nothing
            Bstack = X.data[:, cols]
            for i, P in enumerate(panels):
                pairs_i = list(enumerate(overlaps[i])) if gamma != 0.0 else None
                panel_bc_numeric(P, Bstack, pairs_i, gamma, alpha, offs,
                                 out=out.parts[i])
            return []
        # per block: the partial product of each grid block, the root's
        # in ``out``'s part and the others in recycled scratch
        partials = {}
        for (i, j), Hop in blocks.items():
            root = (0, j) if to_b else (i, 0)
            # C -> B contracts with the conjugate's transpose (the .T is
            # taken inside the kernel, free)
            tgt = out.local(i, j) if (i, j) == root else self._scratch_arr(
                ("pb", i, j), (Hop.shape[1 if to_b else 0], width), out.dtype)
            partials[(i, j)] = block_numeric(
                Hop, to_b, X.local(i, j), cols,
                overlaps[i][j] if gamma != 0.0 else None, gamma, alpha, to_b,
                out=tgt)
        return [[partials[key] for key in ks] for ks in X.axis()[1]]
