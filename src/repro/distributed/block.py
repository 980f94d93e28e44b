"""1D index maps: block and block-cyclic distributions.

A map partitions ``N`` global indices over ``parts`` owners.  Each
owner's local indices are described by *segments* — maximal runs of
consecutive global indices — which is the common currency that lets the
HEMM shift logic and the redistribution code work for both distribution
kinds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

__all__ = ["Segment", "BlockMap1D", "BlockCyclicMap1D", "overlap_table",
           "overlap_pairs"]


@dataclass(frozen=True)
class Segment:
    """A run of consecutive global indices owned by one part.

    ``global_start:global_stop`` maps to local positions starting at
    ``local_start``.
    """

    global_start: int
    global_stop: int
    local_start: int

    @property
    def length(self) -> int:
        return self.global_stop - self.global_start


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

    def size(self, part: int) -> int:
        return self._sizes[part]

    def offset(self, part: int) -> int:
        return self._offsets[part]

    def range_of(self, part: int) -> tuple[int, int]:
        return self._offsets[part], self._offsets[part] + self._sizes[part]

    def owner_of(self, g: int) -> int:
        if not 0 <= g < self.N:
            raise IndexError(g)
        for k in range(self.parts):
            lo, hi = self.range_of(k)
            if lo <= g < hi:
                return k
        raise AssertionError("unreachable")

    def segments(self, part: int) -> list[Segment]:
        lo, hi = self.range_of(part)
        if lo == hi:
            return []
        return [Segment(lo, hi, 0)]

    def local_size(self, part: int) -> int:
        return self.size(part)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockMap1D)
            and other.N == self.N
            and other.parts == self.parts
        )

    def __hash__(self) -> int:
        return hash(("block", self.N, self.parts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockMap1D(N={self.N}, parts={self.parts})"


class BlockCyclicMap1D:
    """Block-cyclic distribution with block size ``nb`` (ScaLAPACK style).

    Global block ``t`` (indices ``t*nb : (t+1)*nb``) belongs to owner
    ``t % parts`` and is that owner's ``t // parts``-th local block.
    """

    def __init__(self, N: int, parts: int, nb: int):
        if N < 0 or parts < 1 or nb < 1:
            raise ValueError(f"bad map N={N}, parts={parts}, nb={nb}")
        self.N = int(N)
        self.parts = int(parts)
        self.nb = int(nb)

    def _blocks_of(self, part: int) -> list[tuple[int, int]]:
        """(global_start, length) of each block owned by ``part``."""
        out = []
        t = part
        while t * self.nb < self.N:
            start = t * self.nb
            out.append((start, min(self.nb, self.N - start)))
            t += self.parts
        return out

    def local_size(self, part: int) -> int:
        return sum(length for _s, length in self._blocks_of(part))

    size = local_size

    def owner_of(self, g: int) -> int:
        if not 0 <= g < self.N:
            raise IndexError(g)
        return (g // self.nb) % self.parts

    def segments(self, part: int) -> list[Segment]:
        segs = []
        local = 0
        for start, length in self._blocks_of(part):
            segs.append(Segment(start, start + length, local))
            local += length
        return segs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockCyclicMap1D)
            and other.N == self.N
            and other.parts == self.parts
            and other.nb == self.nb
        )

    def __hash__(self) -> int:
        return hash(("cyclic", self.N, self.parts, self.nb))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockCyclicMap1D(N={self.N}, parts={self.parts}, nb={self.nb})"


@functools.lru_cache(maxsize=64)
def overlap_table(rowmap, colmap) -> tuple[tuple[tuple, ...], ...]:
    """``table[i][j]``: the aligned (row-local, col-local) slice pairs where
    the global row indices owned by ``rowmap`` part ``i`` intersect the
    global column indices owned by ``colmap`` part ``j``.

    Used for the diagonal shift in ``(H - gamma I) X`` — the gamma term
    of global row ``g`` must be applied exactly once, by the rank whose
    row segment and column segment both contain ``g`` — and by the
    C <-> B redistributions.  The maps are immutable values, so the whole
    table is computed once per map pair (the 64 most recent pairs are
    kept) and shared by every caller: the HEMM, its charge classes and
    every redistribution.
    """
    row_segments = [rowmap.segments(i) for i in range(rowmap.parts)]
    col_segments = [colmap.segments(j) for j in range(colmap.parts)]

    def pairs(rsegs, csegs) -> tuple[tuple[slice, slice], ...]:
        out = []
        for rs in rsegs:
            for cs in csegs:
                lo = max(rs.global_start, cs.global_start)
                hi = min(rs.global_stop, cs.global_stop)
                if lo < hi:
                    out.append((
                        slice(rs.local_start + lo - rs.global_start,
                              rs.local_start + hi - rs.global_start),
                        slice(cs.local_start + lo - cs.global_start,
                              cs.local_start + hi - cs.global_start),
                    ))
        return tuple(out)

    return tuple(
        tuple(pairs(rsegs, csegs) for csegs in col_segments)
        for rsegs in row_segments
    )


def overlap_pairs(rowmap, i: int, colmap, j: int) -> tuple[tuple[slice, slice], ...]:
    """One cell of :func:`overlap_table`."""
    return overlap_table(rowmap, colmap)[i][j]
