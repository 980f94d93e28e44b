"""2D process grid with row and column communicators.

ChASE organizes its MPI processes "as a 2D grid whose shape is as square
as possible" (paper Sec. 2.2).  Ranks are laid out row-major: the rank
with grid coordinates ``(i, j)`` is ``cluster.ranks[i*q + j]``.

* ``row_comm(i)`` — ranks ``(i, 0..q-1)``; hosts the B/B2 buffers and
  the Rayleigh-Ritz / residual allreduces (Algorithm 2 lines 17, 24);
* ``col_comm(j)`` — ranks ``(0..p-1, j)``; hosts the C/C2 buffers, the
  1D-CAQR (line 12) and the C -> B2 broadcasts (lines 14, 20).
"""

from __future__ import annotations

import math

from repro.arrays import is_phantom
from repro.runtime.cluster import VirtualCluster
from repro.runtime.communicator import Communicator
from repro.runtime.device import UNCHARGED
from repro.runtime.rank import RankContext, RankGroup

__all__ = ["Grid2D", "ChargeClass", "squarest_grid"]


def squarest_grid(n_ranks: int) -> tuple[int, int]:
    """Factor ``n_ranks = p * q`` with ``p <= q`` and ``p`` maximal."""
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    p = int(math.isqrt(n_ranks))
    while n_ranks % p:
        p -= 1
    return p, n_ranks // p


class ChargeClass(RankGroup):
    """The grid ranks whose blocks have one shape (DESIGN.md §5j).

    A kernel charge is a function of (shapes, dtype, device spec), so one
    call on the class's kernel sets charges every member.  ``keys`` are
    the members' grid coordinates in row-major order and ``key`` the
    first of them — the block callers hand the kernel as shape proxy.
    """

    def __init__(self, grid: "Grid2D", keys) -> None:
        super().__init__(
            grid.cluster, [grid.rank_at(i, j).rank_id for i, j in keys])
        self.keys = tuple(keys)
        self.key = self.keys[0]


class Grid2D:
    """A ``p x q`` view of a cluster's ranks with cached communicators
    and charge-class tables."""

    def __init__(self, cluster: VirtualCluster, p: int | None = None, q: int | None = None):
        n = cluster.n_ranks
        if p is None and q is None:
            p, q = squarest_grid(n)
        elif p is None:
            if n % q:
                raise ValueError(f"{n} ranks do not tile with q={q}")
            p = n // q
        elif q is None:
            if n % p:
                raise ValueError(f"{n} ranks do not tile with p={p}")
            q = n // p
        if p * q != n:
            raise ValueError(f"grid {p}x{q} != {n} ranks")
        self.cluster = cluster
        self.p, self.q = int(p), int(q)
        for i in range(self.p):
            for j in range(self.q):
                cluster.ranks[i * self.q + j].coords = (i, j)
        # communicators inherit the cluster's interconnect description,
        # collective-algorithm default (DESIGN.md §5e) and a data-plane
        # group on the cluster's transport (DESIGN.md §5h); group members
        # are identified by rank_id — the transport lane index, stable
        # across shrink-recovery re-layouts
        tree, algo = cluster.topology, cluster.collective_algo

        def comm(ranks):
            group = cluster.transport.group([r.rank_id for r in ranks])
            return Communicator(ranks, tree=tree, algo=algo,
                                transport_group=group)

        self._row_comms = [
            comm([self.rank_at(i, j) for j in range(self.q)])
            for i in range(self.p)
        ]
        self._col_comms = [
            comm([self.rank_at(i, j) for i in range(self.p)])
            for j in range(self.q)
        ]
        # built at first use: constructing a grid allocates nothing per
        # rank beyond its communicators
        self._classes: dict = {}

    @property
    def is_square(self) -> bool:
        """True for p == q — ChASE's optimal configuration (Sec. 3.1)."""
        return self.p == self.q

    @property
    def ranks(self) -> list[RankContext]:
        return self.cluster.ranks

    def rank_at(self, i: int, j: int) -> RankContext:
        """The rank at grid coordinates ``(i, j)`` (row-major layout)."""
        if not (0 <= i < self.p and 0 <= j < self.q):
            raise IndexError(f"grid coords ({i},{j}) out of {self.p}x{self.q}")
        return self.cluster.ranks[i * self.q + j]

    def charge_classes(self, table, signature=None) -> tuple[ChargeClass, ...]:
        """The grid's ranks grouped by ``signature(i, j)``, cached as ``table``.

        ``table`` is any hashable naming the grouping (the index maps
        and layout of a multivector, the maps of an ``H``); ``signature``
        returns what a rank's charges depend on — block heights, overlap
        lengths — and is only called when the table is first built.
        Classes come in order of their first member (row-major); without
        a ``signature`` every rank falls into one class.
        """
        classes = self._classes.get(table)
        if classes is None:
            members: dict = {}
            for i in range(self.p):
                for j in range(self.q):
                    sig = signature(i, j) if signature is not None else None
                    members.setdefault(sig, []).append((i, j))
            classes = tuple(ChargeClass(self, keys) for keys in members.values())
            self._classes[table] = classes
        return classes

    @property
    def everyone(self) -> ChargeClass:
        """All ranks as one class: redundant kernels on replicated data."""
        return self.charge_classes("everyone")[0]

    def charged_map(self, classes, kernel, *, phantom: bool,
                    kernels: str = "k", root_of=None) -> dict:
        """Run one kernel step on every rank's block; returns the results
        by grid coordinates.

        ``kernel(k, key)`` calls :class:`LocalKernels` methods of ``k``
        on the block(s) at coordinates ``key``.  It runs once per class,
        on the class's ``kernels`` set and first member's block(s): that
        call charges every member.  In ``phantom`` mode its (metadata)
        result is shared by the members; otherwise every other rank's
        arithmetic runs uncharged — or, with ``root_of(i, j)``, only
        that of the replication roots, whose result the other ranks
        alias (a class's first member is the root of its group).
        """
        first, out = {}, {}
        for members in classes:
            res = first[members.key] = kernel(
                getattr(members, kernels), members.key)
            if phantom:
                out.update(dict.fromkeys(members.keys, res))
        if phantom:
            return out
        for i in range(self.p):
            for j in range(self.q):
                key = (i, j)
                root = key if root_of is None else root_of(i, j)
                if key in first:
                    out[key] = first[key]
                elif root in out:
                    out[key] = out[root]
                else:
                    out[key] = kernel(UNCHARGED, key)
        return out

    def charged_redundant(self, kernel, mats: dict, *, shared: bool,
                          kernels: str = "k") -> dict:
        """A redundant kernel on the replicated small matrices ``mats``
        (Gram matrix, Rayleigh quotient): ``kernel(k, mat)`` is charged
        to everyone in one call and computed once when the replicas are
        one object (``shared``), else once per rank."""
        return self.charged_map(
            (self.everyone,), lambda k, key: kernel(k, mats[key]),
            phantom=is_phantom(mats[(0, 0)]), kernels=kernels,
            root_of=(lambda i, j: (0, 0)) if shared else None)

    def row_comm(self, i: int) -> Communicator:
        """Communicator of grid row ``i`` (hosts the B/B2 collectives)."""
        return self._row_comms[i]

    def col_comm(self, j: int) -> Communicator:
        """Communicator of grid column ``j`` (hosts C/C2 and the 1D QR)."""
        return self._col_comms[j]

    def set_collective_algo(self, algo) -> None:
        """Select the collective algorithm on every communicator.

        ``algo`` is a :class:`~repro.perfmodel.collectives.CollectiveAlgo`
        or its string value (``ring`` / ``tree`` / ``hierarchical`` /
        ``auto``).  Modeled time and per-level CommStats change; data
        movement, numerics and the legacy CommStats triple do not
        (DESIGN.md §5e).
        """
        for c in (*self._row_comms, *self._col_comms):
            c.set_collective_algo(algo)

    def set_topology(self, tree) -> None:
        """Attach (or detach) a fat tree on every communicator."""
        for c in (*self._row_comms, *self._col_comms):
            c.set_topology(tree)

    def shrink(self, dead_ranks) -> "Grid2D":
        """The squarest surviving grid after ``dead_ranks`` died.

        Recovery re-layout (DESIGN.md §5f): the surviving cluster keeps
        its rank clocks and tracer, and the new ``p' x q'`` grid is the
        squarest factorization of the survivor count.  Data structures
        (H, multivectors) must be rebuilt on the returned grid — the
        solver's recovery path does that from its last checkpoint.
        """
        return Grid2D(self.cluster.shrink(dead_ranks))

    def dead_ranks(self) -> tuple[int, ...]:
        """Rank ids whose scheduled death has fired (empty when no injector)."""
        inj = self.cluster.faults
        if inj is None:
            return ()
        return tuple(sorted(inj.dead))

    def comm_stats(self) -> tuple:
        """CommStats tuples of every row then column communicator.

        One flat, order-stable tuple so benchmark/test code can assert
        that two runs issued bit-identical collective traffic.
        """
        return tuple(
            c.stats.as_tuple() for c in (*self._row_comms, *self._col_comms)
        )

    def comm_stats_levels(self) -> tuple:
        """Per-level CommStats tuples, rows then columns (DESIGN.md §5e).

        Each entry is ``(intra_messages, inter_messages, intra_bytes,
        inter_bytes)``; the byte pair always sums to the corresponding
        ``bytes_moved`` of :meth:`comm_stats`.
        """
        return tuple(
            c.stats.levels_tuple() for c in (*self._row_comms, *self._col_comms)
        )

    def coords_of(self, rank: RankContext) -> tuple[int, int]:
        assert rank.coords is not None
        return rank.coords

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid2D({self.p}x{self.q} on {self.cluster!r})"
