"""The distributed Chebyshev filter (Algorithm 2, line 10).

Implements the numerically scaled three-term recurrence (Zhou & Saad):

    sigma_1 = e / (mu_1 - c)
    X_1     = (sigma_1 / e) (H - c I) X_0
    sigma_{t} = 1 / (2/sigma_1 - sigma_{t-1})
    X_t     = 2 (sigma_t / e) (H - c I) X_{t-1} - sigma_{t-1} sigma_t X_{t-2}

with per-column degrees.  The custom distributed HEMM alternates the
vectors between the C and B layouts; ChASE enforces **even** degrees so
every column finishes in the C layout.  Columns are pre-sorted ascending
by degree, so finished columns retire as a prefix of the active block
and the working set shrinks monotonically (minimizing MatVecs).

Each step is charged from its signature (:func:`_step`) and computed
uncharged on numeric grids only: a phantom step builds no data
(DESIGN.md §5j).
"""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.runtime.device import axpby_numeric, cast_numeric

__all__ = [
    "chebyshev_filter",
    "FilterWorkspace",
]


# -- the charges: functions of shapes and dtypes, recorded once per key ---------------
def _charge_blockwise(grid, X: Operand, op: str, dst) -> None:
    """The charges of ``op`` — ``"axpby"`` of ``X``'s and ``dst`` blocks,
    or ``"cast"`` of ``X`` to ``dst`` — on every block of ``X``'s
    layout, replayed as a whole-grid step."""

    def kernel(k, rows):
        Y = PhantomArray((rows, X.ne), X.dtype)
        if op == "cast":
            k.cast(Y, dst)
        else:
            k.axpby(Y, PhantomArray(Y.shape, dst))
    X.charge(grid, kernel, (op, dst))


def _step(hemm: DistributedHemm, X, alpha: float, gamma: float, out,
          prev_dtype, demote, promote):
    """One recurrence step's charges in every rank's order, the one
    statement of them both modes run; returns its HEMM's product.

    A narrow filter's entry cast ``demote`` ``(from, to)``; the apply of
    ``alpha (H - gamma I)`` to ``X`` (into ``out``; an :class:`Operand`
    is charged alone); but on the first step (``prev_dtype`` ``None``),
    the AXPBY with the previous iterate; the cast ``promote`` ``(columns,
    to)`` of the retiring columns.
    """
    grid = hemm.grid
    if demote is not None:
        _charge_blockwise(grid, Operand.of(X)._replace(dtype=demote[0]),
                          "cast", demote[1])
    W = hemm.apply(X, alpha=alpha, gamma=gamma, out=out)
    if prev_dtype is not None:
        _charge_blockwise(grid, Operand.of(W), "axpby", prev_dtype)
    if promote is not None:
        _charge_blockwise(grid, Operand.of(W, promote[0]), "cast",
                          promote[1])
    return W


# -- the numerics: uncharged --------------------------------------------------------
def _axpby(alpha, X, beta, Y, out=None) -> DistributedMultiVector:
    """``alpha X + beta Y`` on the whole array, uncharged (:func:`_step`
    charges it).  ``out``, a multivector of ``X``'s layout and width,
    receives the result in place and is returned — it may be ``X`` (the
    recurrence passes ``out=X``) but not ``Y``; the bits are unchanged."""
    if out is not None:
        axpby_numeric(alpha, X.data, beta, Y.data, out.data)
        return out
    return X.with_data(axpby_numeric(alpha, X.data, beta, Y.data))


def _cast(X: DistributedMultiVector, dtype) -> DistributedMultiVector:
    """:func:`_cast_mv` without its charges."""
    return X.with_data(cast_numeric(X.data, dtype))


def _cast_mv(grid, X, dtype):
    """Cast ``X`` to ``dtype``, charged blockwise per shape class, then,
    but for an :class:`Operand` (which yields the cast's), computed
    uncharged on the whole array."""
    dtype = np.dtype(dtype)
    _charge_blockwise(grid, Operand.of(X), "cast", dtype)
    if type(X) is Operand:
        return X._replace(dtype=dtype)
    return _cast(X, dtype)


class FilterWorkspace:
    """Ping-pong output buffers for the filter's three-term recurrence.

    Without a workspace every HEMM and AXPBY of the recurrence allocates
    a fresh multivector.  The workspace holds two buffers per layout
    and hands them out alternately: the flip target is never one of the two
    live iterates (``X_prev`` lives two steps back, ``X_cur`` one).
    Buffers are created at the first (widest) requested width and
    narrowed by column views afterwards.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], list[DistributedMultiVector]] = {}
        self._flip: dict[tuple[str, str], int] = {}

    def out_view(self, H, layout: str, width: int, dtype) -> DistributedMultiVector:
        """The next ping-pong buffer for ``layout``, viewed to ``width``."""
        index_map = H.colmap if layout == "B" else H.rowmap
        # keyed by (layout, dtype) so a mixed-precision solve that
        # alternates fp32 and fp64 filter calls (the condest gate is
        # per-iteration) keeps both buffer sets alive instead of
        # reallocating on every precision switch
        key = (layout, np.dtype(dtype).str)
        pair = self._buffers.get(key)
        if (pair is None or pair[0].ne < width
                or pair[0].index_map is not index_map
                or pair[0].grid is not H.grid):
            pair = self._buffers[key] = [DistributedMultiVector.zeros(
                H.grid, index_map, layout, width, dtype) for _ in range(2)]
            self._flip[key] = 0
        idx = self._flip[key]
        self._flip[key] = 1 - idx
        buf = pair[idx]
        return buf if buf.ne == width else buf.view_cols(0, width)


def chebyshev_filter(
    hemm: DistributedHemm,
    C: DistributedMultiVector,
    locked: int,
    degrees: np.ndarray,
    c: float,
    e: float,
    mu1: float,
    workspace: FilterWorkspace | None = None,
    work_dtype=None,
) -> int:
    """Filter ``C[:, locked:]`` in place; returns MatVecs performed.

    ``degrees`` covers the active columns (length ``ne - locked``), must
    be even, >= 2, and sorted ascending (see
    :func:`repro.core.degrees.sort_by_degree`).

    Each step is charged from its signature (:func:`_step`) and, but
    for an :class:`Operand` ``C`` (a phantom replay's, which builds
    nothing), computed uncharged.  ``workspace`` lends a numeric
    recurrence its output buffers, across calls when the caller keeps
    it (``ChaseSolver.solve`` does).

    ``work_dtype`` (mixed precision, DESIGN.md §5g), when narrower than
    ``C.dtype``: the active block is demoted once on entry, the whole
    recurrence runs in the narrow dtype, and columns are promoted back
    as they retire; both casts are charged as kernels on every rank.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n_active = C.ne - locked
    if degrees.shape != (n_active,):
        raise ValueError(f"degrees must cover the {n_active} active "
                         f"columns, got {degrees.shape}")
    if n_active == 0:
        return 0
    if np.any(degrees % 2) or np.any(degrees < 2):
        raise ValueError("ChASE requires even filter degrees >= 2")
    if np.any(np.diff(degrees) < 0):
        raise ValueError("degrees must be sorted ascending")
    if not mu1 < c - e:
        raise ValueError("mu1 must lie below the damped interval")

    grid, H = hemm.grid, hemm.H
    matvecs0 = hemm.matvecs
    max_deg = int(degrees[-1])
    # columns of degree <= t, for every t: the sorted degrees retire as
    # a prefix of the active block
    finished = np.searchsorted(degrees, np.arange(max_deg + 1),
                               side="right").tolist()
    run_dtype = np.dtype(work_dtype) if work_dtype is not None else C.dtype
    narrow = run_dtype != C.dtype
    numeric = type(C) is not Operand
    ws = workspace if numeric else None

    sigma1 = e / (mu1 - c)
    sigma = sigma_new = sigma1
    X_prev = X_cur = None  # the numeric iterates; a phantom filter has none
    if numeric:
        X_cur = C.view_cols(locked, C.ne)  # X_0, layout "C"
        if narrow:  # charged on the first step
            X_cur = _cast(X_cur, run_dtype)
    # dtypes of X_{t-1} and X_{t-2}: X_1, X_2, ... share the work dtype
    xdtype, prev = run_dtype, None
    width, to_b, retired = n_active, True, 0
    for t in range(1, max_deg + 1):
        first = t == 1
        if not first:
            sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        alpha = sigma1 / e if first else 2.0 * sigma_new / e
        done = finished[t] - retired if t % 2 == 0 else 0
        W = _step(
            hemm, X_cur if numeric else Operand(
                "C" if to_b else "B", width, xdtype,
                H.rowmap if to_b else H.colmap),
            alpha, c, None if ws is None else ws.out_view(
                H, "B" if to_b else "C", width, run_dtype), prev,
            (C.dtype, run_dtype) if first and narrow else None,
            (done, C.dtype) if done and narrow else None)

        if numeric:
            X_prev, X_cur = X_cur, W if first else _axpby(
                1.0, W, -sigma * sigma_new, X_prev, W if ws is not None else None)
        if numeric and done:
            # X_cur is in the C layout: retire the columns of degree t
            # (write_into's assignment widens a narrow block)
            X_cur.view_cols(0, done).write_into(C, locked + retired)
            X_cur = X_cur.view_cols(done, width)
            X_prev = X_prev.view_cols(done, width)

        xdtype, prev = W.dtype, xdtype
        sigma, retired, width = sigma_new, retired + done, width - done
        to_b = not to_b
        if retired == n_active:
            break
    assert retired == n_active, "filter finished with unretired columns"
    return hemm.matvecs - matvecs0
