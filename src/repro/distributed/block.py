"""1D block index maps and their overlaps.

A map partitions ``N`` global indices over ``parts`` owners in
contiguous ranges (the block distribution of H over the 2D grid, paper
Sec. 2.2): each owner's local indices are one run of consecutive global
indices, ``range_of(part)``.
"""

from __future__ import annotations

import functools

__all__ = ["BlockMap1D", "overlap_table"]


class BlockMap1D:
    """Contiguous block distribution of ``N`` indices over ``parts`` owners.

    Sizes follow the balanced convention: the first ``N % parts`` owners
    get ``ceil(N/parts)`` indices, the rest ``floor(N/parts)``.
    """

    def __init__(self, N: int, parts: int):
        if N < 0 or parts < 1:
            raise ValueError(f"bad map N={N}, parts={parts}")
        self.N = int(N)
        self.parts = int(parts)
        base, extra = divmod(self.N, self.parts)
        self._sizes = [base + (1 if k < extra else 0) for k in range(self.parts)]
        self._offsets = [0] * self.parts
        for k in range(1, self.parts):
            self._offsets[k] = self._offsets[k - 1] + self._sizes[k - 1]
        # a map is a value: hashed once, it keys the class tables
        self._hash = hash(("block", self.N, self.parts))

    def local_size(self, part: int) -> int:
        return self._sizes[part]

    def range_of(self, part: int) -> tuple[int, int]:
        return self._offsets[part], self._offsets[part] + self._sizes[part]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockMap1D)
            and other.N == self.N
            and other.parts == self.parts
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockMap1D(N={self.N}, parts={self.parts})"


@functools.lru_cache(maxsize=64)
def overlap_table(rowmap, colmap) -> tuple[tuple[tuple, ...], ...]:
    """``table[i][j]``: the aligned (row-local, col-local) slice pairs where
    the global row indices owned by ``rowmap`` part ``i`` intersect the
    global column indices owned by ``colmap`` part ``j`` — one pair, or
    none when the two ranges are disjoint.

    Used for the diagonal shift in ``(H - gamma I) X`` — the gamma term
    of global row ``g`` must be applied exactly once, by the rank whose
    row range and column range both contain ``g`` — and by the
    C <-> B redistributions.  The maps are immutable values, so the whole
    table is computed once per map pair (the 64 most recent pairs are
    kept) and shared by every caller: the HEMM, its charge classes and
    every redistribution.
    """

    def pairs(i: int, j: int) -> tuple[tuple[slice, slice], ...]:
        (r0, r1), (c0, c1) = rowmap.range_of(i), colmap.range_of(j)
        lo, hi = max(r0, c0), min(r1, c1)
        if lo >= hi:
            return ()
        return ((slice(lo - r0, hi - r0), slice(lo - c0, hi - c0)),)

    return tuple(
        tuple(pairs(i, j) for j in range(colmap.parts))
        for i in range(rowmap.parts)
    )
