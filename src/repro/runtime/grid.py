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
from functools import cached_property

import numpy as np

from repro.runtime.cluster import VirtualCluster, stored
from repro.runtime.communicator import CommGroup, Communicator
from repro.runtime.clock import CostCategory
from repro.runtime.device import LocalKernels
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
    call on the class's kernel sets charges every member.  ``key`` is
    the first member's grid coordinates (row-major) — the block whose
    shape the class's charges read; ``table`` names the grouping
    (:meth:`Grid2D.charge_classes`).
    """

    def __init__(self, grid: "Grid2D", table, keys) -> None:
        ranks, q = grid.cluster.ranks, grid.q
        super().__init__(
            grid.cluster, [ranks[i * q + j].rank_id for i, j in keys])
        self.table = table
        self.key = keys[0]


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

        #: the ``p`` row communicators, grouped: one collective on all
        #: of them is one call (DESIGN.md §5j)
        self.row_comms = CommGroup(
            comm([self.rank_at(i, j) for j in range(self.q)])
            for i in range(self.p))
        #: the ``q`` column communicators, grouped likewise
        self.col_comms = CommGroup(
            comm([self.rank_at(i, j) for i in range(self.p)])
            for j in range(self.q))
        # built at first use: constructing a grid allocates nothing per
        # rank beyond its communicators
        self._classes: dict = {}
        #: replay()'s store token and table columns, by (classes, kernels)
        self._steps: dict = {}

    @cached_property
    def row_keys(self) -> tuple:
        """Grid coordinates of each row communicator's members."""
        return tuple(tuple((i, j) for j in range(self.q))
                     for i in range(self.p))

    @cached_property
    def col_keys(self) -> tuple:
        """Grid coordinates of each column communicator's members."""
        return tuple(tuple((i, j) for i in range(self.p))
                     for j in range(self.q))

    @property
    def ranks(self) -> list[RankContext]:
        return self.cluster.ranks

    def rank_at(self, i: int, j: int) -> RankContext:
        """The rank at grid coordinates ``(i, j)`` (row-major layout)."""
        if not (0 <= i < self.p and 0 <= j < self.q):
            raise IndexError(f"grid coords ({i},{j}) out of {self.p}x{self.q}")
        return self.cluster.ranks[i * self.q + j]

    def charge_classes(self, table, signatures=None) -> tuple[ChargeClass, ...]:
        """The grid's ranks grouped by their signature, cached as ``table``.

        ``table`` is any hashable naming the grouping (the index maps
        and layout of a multivector, the maps of an ``H``);
        ``signatures()`` returns what each rank's charges depend on —
        block heights, overlap lengths — in row-major rank order, and is
        only called when the table is first built.  Classes come in
        order of their first member (row-major); without ``signatures``
        every rank falls into one class.
        """
        classes = self._classes.get(table)
        if classes is None:
            keys = [(i, j) for i in range(self.p) for j in range(self.q)]
            sigs = signatures() if signatures is not None \
                else [None] * len(keys)
            classes = self._classes[table] = tuple(
                ChargeClass(self, table,
                            [key for key, s in zip(keys, sigs) if s == sig])
                for sig in dict.fromkeys(sigs))
        return classes

    @property
    def everyone(self) -> ChargeClass:
        """All ranks as one class: redundant kernels on replicated data."""
        return self.charge_classes("everyone")[0]

    def replay(self, classes, kernel, memo, reduce=None,
               kernels: str = "k") -> None:
        """Charge one kernel step on ``classes`` as whole-grid steps,
        recorded once per key.

        ``kernel(k, key)`` must charge what only the classes' block
        shapes and ``memo`` determine (on shape proxies).  At the first
        call per key it runs once per class into a copy of the class's
        ``kernels`` set (``k``, ``qr_kernels``, ``gpu`` or ``cpu``) whose
        sink only records; the sequences are laid side by side — step
        ``s`` holds every class's ``s``-th charge, ``0.0`` for a class
        whose sequence has ended — and every call charges them as one
        run of :meth:`VirtualCluster.run`.  Each rank sees exactly its
        own sequence; slowdowns apply when a step is charged.  The key —
        grid shape, the classes' table and rank ids, the kernel set's
        model, ``memo`` — fixes the record, so it is stored once per
        process (DESIGN.md §5j); the grid interns all but ``memo`` as a
        token per ``(classes, kernels)``.

        ``reduce`` — ``(axis, payloads)`` — closes the step with a
        grouped allreduce of ``payloads()`` bytes per member on the
        :class:`~repro.runtime.communicator.CommGroup` ``axis``: the
        record and the allreduce's plan are stored as one program under
        the key and the axis's token, and charged together.
        """
        step = self._steps.get((classes, kernels))
        if step is None:
            # each rank's column of the table; ranks in no class read
            # the extra all-zero column
            slots = np.full(len(self.cluster.clocks), len(classes), np.intp)
            for c, members in enumerate(classes):
                slots[list(members.ids)] = c
            token = stored((getattr(classes[0], kernels).model, self.p,
                            self.q, classes[0].table,
                            tuple(members.ids for members in classes)), object)
            step = self._steps[(classes, kernels)] = token, slots
        token, slots = step

        def record():
            return stored((token, memo),
                          lambda: self._record(classes, kernel, kernels))
        if reduce is None:
            (table, charged), plan = record(), None
        else:
            axis, payloads = reduce
            (table, charged), plan = stored(
                ("program", token, memo, axis.token), lambda: (
                    record(), axis.plan("allreduce", 2 * math.ceil(math.log2(
                        axis.size)), payloads()) if axis.size > 1 else None))
        run = (CostCategory.COMPUTE, table, slots, charged)
        if plan is None:
            self.cluster.run((run,))
        else:
            axis.charge(plan, run)

    def _record(self, classes, kernel, kernels: str) -> tuple:
        """``(table, charged)`` of :meth:`replay`: ``table[s][c]``
        is class ``c``'s ``s``-th charge (plus a zero column),
        ``charged[s]`` the rank ids step ``s`` charges.  Plain tuples: the
        store holds hundreds of tables, and as NumPy arrays they would
        leave as many small heap blocks for the allocator to sort."""
        per_class = []
        for members in classes:
            dts: list[float] = []
            kernel(LocalKernels(getattr(members, kernels).model, dts.append),
                   members.key)
            if min(dts, default=0.0) < 0:
                raise ValueError(f"negative charge in a recorded step: {dts}")
            per_class.append(dts)
        table, charged = [], []
        for s in range(max(map(len, per_class), default=0)):
            table.append(tuple(dts[s] if s < len(dts) else 0.0
                               for dts in per_class) + (0.0,))
            ids = tuple(r for members, dts in zip(classes, per_class)
                        if s < len(dts) for r in members.ids)
            charged.append(stored(ids, lambda: ids))
        return tuple(table), tuple(charged)

    def row_comm(self, i: int) -> Communicator:
        """Communicator of grid row ``i`` (hosts the B/B2 collectives)."""
        return self.row_comms[i]

    def col_comm(self, j: int) -> Communicator:
        """Communicator of grid column ``j`` (hosts C/C2 and the 1D QR)."""
        return self.col_comms[j]

    def shrink(self, dead_ranks) -> "Grid2D":
        """The squarest surviving grid after ``dead_ranks`` died.

        Recovery re-layout (DESIGN.md §5f): the surviving cluster keeps
        its rank clocks and tracer, and the new ``p' x q'`` grid is the
        squarest factorization of the survivor count.  Data structures
        (H, multivectors) must be rebuilt on the returned grid — the
        solver's recovery path does that from its last checkpoint.
        """
        return Grid2D(self.cluster.shrink(dead_ranks))

    def comm_stats(self) -> tuple:
        """CommStats tuples of every row then column communicator.

        One flat, order-stable tuple so benchmark/test code can assert
        that two runs issued bit-identical collective traffic.
        """
        return tuple(
            c.stats.as_tuple() for c in (*self.row_comms, *self.col_comms)
        )

    def comm_stats_levels(self) -> tuple:
        """Per-level CommStats tuples, rows then columns (DESIGN.md §5e).

        Each entry is ``(intra_messages, inter_messages, intra_bytes,
        inter_bytes)``; the byte pair always sums to the corresponding
        ``bytes_moved`` of :meth:`comm_stats`.
        """
        return tuple(
            c.stats.levels_tuple() for c in (*self.row_comms, *self.col_comms)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid2D({self.p}x{self.q} on {self.cluster!r})"
