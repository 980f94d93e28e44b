"""Re-distribution of the C layout into the B layout (Algorithm 2, l. 14/20).

The Rayleigh-Ritz quotient needs ``C`` copied from its column-communicator
distribution into the ``B2`` buffers distributed within each row
communicator.  On a **square** grid with matching row/column index maps,
the rows needed by column part ``j`` are exactly row part ``j``, held by
the diagonal rank of each column communicator — a *single broadcast per
column communicator* suffices (paper Sec. 3.1).  On non-square grids (or
mismatched maps) the general path issues one broadcast per overlapping
segment, which is why square grids are "the optimal configuration for
ChASE".

Both directions issue their broadcasts as grouped calls on the
communicators of one grid axis
(:class:`~repro.runtime.communicator.CommGroup`): round ``r`` is every
communicator's ``r``-th segment at once.  On the square aligned grid
that is one grouped call per redistribution.  Each rank belongs to one
communicator of the axis, so it sees its own broadcasts in their order.
Either side may be an :class:`Operand` (a phantom replay's): the rounds
are charged from its signature, and nothing moves.
"""

from __future__ import annotations

from repro.distributed.block import overlap_table
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.runtime.cluster import stored
from repro.runtime.grid import Grid2D

__all__ = ["redistribute_c_to_b", "redistribute_b_to_c"]


def redistribute_c_to_b(
    grid: Grid2D,
    C: DistributedMultiVector | Operand,
    B: DistributedMultiVector | Operand,
    cols: slice | None = None,
) -> int:
    """Copy ``C[:, cols]`` (layout "C") into ``B[:, cols]`` (layout "B").

    Returns the number of broadcast operations issued (1 per column
    communicator on a square grid with aligned maps).
    """
    if C.layout != "C" or B.layout != "B":
        raise ValueError("redistribute_c_to_b needs a C-layout source and B-layout target")
    return _redistribute(grid, C, B, cols)


def redistribute_b_to_c(
    grid: Grid2D,
    B: DistributedMultiVector | Operand,
    C: DistributedMultiVector | Operand,
    cols: slice | None = None,
) -> int:
    """Copy ``B[:, cols]`` (layout "B") into ``C[:, cols]`` (layout "C").

    The mirror of :func:`redistribute_c_to_b`, broadcasting within each
    *row* communicator.  Used by the distributed Lanczos pre-processing,
    whose three-term recurrence needs ``H v`` back in the layout of
    ``v``.  Returns the number of broadcasts issued.
    """
    if B.layout != "B" or C.layout != "C":
        raise ValueError("redistribute_b_to_c needs a B-layout source and C-layout target")
    return _redistribute(grid, B, C, cols)


def _redistribute(grid: Grid2D, src, dst, cols: slice | None) -> int:
    """Broadcast every overlap segment of ``src[:, cols]`` into ``dst``
    within the communicators of ``src``'s replicated axis: the column
    communicators for C -> B, the row communicators for B -> C.

    Each round is charged from its signature — the segments' rows, the
    width and the dtype (:meth:`CommGroup.charge_bcast`) — and then, but
    between operands, moves the data uncharged.  The target replicates
    along the axis: the root's segment view is broadcast and written
    once through the target part's view.
    """
    cols = cols if cols is not None else slice(0, src.ne)
    start = cols.start or 0
    stop = src.ne if cols.stop is None else cols.stop
    width = stop - start
    if width <= 0:
        return 0
    if src.layout == "C":
        comms, key = grid.col_comms, (lambda k, m: (m, k))
    else:
        comms, key = grid.row_comms, (lambda k, m: (k, m))
    rounds = stored(("redistribute", src.index_map, dst.index_map,
                     src.layout), lambda: _rounds(src, dst, comms))
    row_bytes = width * src.dtype.itemsize
    moves = type(src) is not Operand and type(dst) is not Operand
    n_bcasts = 0
    for members, roots, src_rows, dst_rows in rounds:
        group = comms if len(members) == len(comms) \
            else comms.subgroup(members)
        group.charge_bcast([float((b - a) * row_bytes) for a, b in src_rows])
        n_bcasts += len(members)
        if not moves:
            continue
        views = src.segments(((key(k, m), rows) for k, m, rows in zip(
            members, roots, src_rows)), start, stop)
        received = group.bcast_move([[v] * comms.size for v in views], roots)
        for k, (a, b), res in zip(members, dst_rows, received):
            dst.local(*key(k, 0))[a:b, start:stop] = res[0]
    return n_bcasts


def _rounds(src, dst, comms) -> tuple:
    """The broadcast rounds of a redistribution from ``src``'s index map
    to ``dst``'s, as plain values: per round the members taking part,
    and per member its root and its ``(start, stop)`` source and target
    rows.  Communicator ``k`` of the axis broadcasts its segments in
    root order, round ``r`` every communicator's ``r``-th."""
    overlaps = overlap_table(src.index_map, dst.index_map)
    segments = [[(m, (s.start, s.stop), (d.start, d.stop))
                 for m in range(comms.size) for s, d in overlaps[m][k]]
                for k in range(len(comms))]
    return tuple(
        (tuple(k for k, segs in enumerate(segments) if r < len(segs)),
         *zip(*(segs[r] for segs in segments if r < len(segs))))
        for r in range(max(map(len, segments))))
