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
"""

from __future__ import annotations

import numpy as np

from repro.arrays import PhantomArray
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector

__all__ = [
    "chebyshev_filter",
    "mv_axpby",
    "FilterWorkspace",
]


def mv_axpby(
    alpha: float,
    X: DistributedMultiVector,
    beta: float,
    Y: DistributedMultiVector,
    out: DistributedMultiVector | None = None,
) -> DistributedMultiVector:
    """``alpha X + beta Y`` blockwise (no communication; same layout).

    Every rank is charged the modeled kernel time, one charge call per
    shape class.  When both operands are aliased (replication-aware
    numeric mode) the combination is computed once per replication group
    and the result ndarray aliased into every replica slot.

    ``out`` (dedup mode only) receives the result in place — its root
    blocks may alias ``X``'s (the recurrence passes ``out=X``) but must
    not alias ``Y``'s; the bits and the modeled charges are unchanged.
    """
    if X.layout != Y.layout or X.ne != Y.ne:
        raise ValueError("mv_axpby needs same-layout, same-width multivectors")
    dedup = X.aliased and Y.aliased and not X.is_phantom
    if out is not None and (
        not dedup or out.is_phantom or not out.aliased
        or out.layout != X.layout or out.ne != X.ne
    ):
        out = None
    blocks = X.blockwise(
        lambda k, key: k.axpby(
            alpha, X.blocks[key], beta, Y.blocks[key],
            out=None if out is None else out.blocks[key]),
        aliased=dedup)
    return DistributedMultiVector(
        X.grid, X.index_map, X.layout, X.ne, blocks, X.dtype, aliased=dedup
    )


class FilterWorkspace:
    """Ping-pong output buffers for the filter's three-term recurrence.

    Without a workspace every ``DistributedHemm.apply`` and every
    ``mv_axpby`` of the recurrence allocates a fresh multivector —
    thousands of large allocations per solve.  The workspace holds two
    stacked aliased buffers per layout (see
    ``DistributedMultiVector.zeros_stacked``) and hands them out
    alternately: at any recurrence step the flip target is never one of
    the two live iterates (``X_prev`` lives two steps back, ``X_cur``
    one), so each apply can safely overwrite the buffer.  Buffers are
    created at the first requested width (the widest — active widths
    shrink monotonically as columns retire/lock) and narrowed by column
    views afterwards.  Dedup mode only; the charge-only (phantom) path
    never sees a workspace.
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
        if (
            pair is None
            or pair[0].ne < width
            or pair[0].index_map is not index_map
            or pair[0].grid is not H.grid
        ):
            pair = [
                DistributedMultiVector.zeros_stacked(
                    H.grid, index_map, layout, width, dtype
                )
                for _ in range(2)
            ]
            self._buffers[key] = pair
            self._flip[key] = 0
        idx = self._flip[key]
        self._flip[key] = 1 - idx
        buf = pair[idx]
        return buf if buf.ne == width else buf.view_cols(0, width)


def _cast_mv(
    X: DistributedMultiVector, dtype, *, charge_only: bool = False,
) -> DistributedMultiVector | None:
    """Cast ``X`` to ``dtype`` blockwise, charging a cast kernel per rank.

    Dedup-aware: on an aliased multivector the conversion is computed
    once per replication group and the fresh array aliased into every
    replica slot.  Phantom blocks
    yield phantom blocks of the new dtype, so the charge-only tiers and
    the autotuner model demote/promote traffic identically to numeric
    runs.  With ``charge_only`` the per-rank charges are issued and no
    data is produced (the promote path: ``write_into`` performs the
    widening assignment itself).
    """
    if charge_only:
        for members in X.classes():
            blk = X.blocks[members.key]
            members.k.cast(PhantomArray(blk.shape, blk.dtype), dtype)
        return None
    blocks = X.blockwise(lambda k, key: k.cast(X.blocks[key], dtype))
    return DistributedMultiVector(
        X.grid, X.index_map, X.layout, X.ne, blocks, dtype, aliased=X.aliased
    )


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

    ``workspace`` (dedup mode only, ignored otherwise) supplies the
    recurrence's ping-pong output buffers so the per-step applies and
    axpbys reuse storage across steps — and across filter calls when
    the caller keeps the workspace alive (``ChaseSolver.solve`` does).

    ``work_dtype`` (mixed precision, DESIGN.md §5g): when given and
    narrower than ``C.dtype``, the active block is demoted once on
    entry, the whole recurrence — HEMM applies, reductions, axpbys —
    runs in the narrow dtype, and columns are promoted back to
    ``C.dtype`` as they retire.  Demote and promote are charged as
    bandwidth-bound cast kernels on every rank.  ``None`` (default) or
    ``C.dtype`` leaves the filter bit-identical to the full-precision
    path.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n_active = C.ne - locked
    if degrees.shape != (n_active,):
        raise ValueError(
            f"degrees must cover the {n_active} active columns, got {degrees.shape}"
        )
    if n_active == 0:
        return 0
    if np.any(degrees % 2) or np.any(degrees < 2):
        raise ValueError("ChASE requires even filter degrees >= 2")
    if np.any(np.diff(degrees) < 0):
        raise ValueError("degrees must be sorted ascending")
    if not mu1 < c - e:
        raise ValueError("mu1 must lie below the damped interval")

    matvecs0 = hemm.matvecs
    max_deg = int(degrees[-1])
    retired = 0  # columns already written back

    run_dtype = np.dtype(work_dtype) if work_dtype is not None else C.dtype
    narrow = run_dtype != C.dtype

    ws = workspace if (C.aliased and not C.is_phantom) else None

    def out_for(layout: str, width: int):
        if ws is None:
            return None
        return ws.out_view(hemm.H, layout, width, run_dtype)

    sigma1 = e / (mu1 - c)
    sigma = sigma1

    X_prev = C.view_cols(locked, C.ne)  # X_0, layout "C"
    if narrow:
        # demote the active block once; the whole recurrence runs narrow
        X_prev = _cast_mv(X_prev, run_dtype)
    X_cur = hemm.apply(
        X_prev, alpha=sigma1 / e, gamma=c, out=out_for("B", n_active)
    )  # X_1, layout "B"

    for t in range(2, max_deg + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        W = hemm.apply(
            X_cur, alpha=2.0 * sigma_new / e, gamma=c,
            out=out_for(X_prev.layout, X_cur.ne))
        X_next = mv_axpby(1.0, W, -sigma * sigma_new, X_prev,
                          out=W if ws is not None else None)
        sigma = sigma_new
        X_prev, X_cur = X_cur, X_next

        if t % 2 == 0:
            # X_cur is in the C layout: retire columns whose degree == t
            done = int(np.searchsorted(degrees[retired:], t, side="right"))
            if done:
                finished = X_cur.view_cols(0, done)
                if narrow:
                    # promote at retire: write_into's widening assignment
                    # does the data conversion; charge the cast per rank
                    _cast_mv(finished, C.dtype, charge_only=True)
                finished.write_into(C, locked + retired)
                retired += done
                width = X_cur.ne
                X_cur = X_cur.view_cols(done, width)
                X_prev = X_prev.view_cols(done, width)
                if retired == n_active:
                    break
    assert retired == n_active, "filter finished with unretired columns"
    return hemm.matvecs - matvecs0
