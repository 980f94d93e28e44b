"""Virtual cluster: rank placement on nodes, shared tracer, backend."""

from __future__ import annotations

import copy
import math
from dataclasses import replace

import numpy as np

from repro.perfmodel.collectives import CollectiveAlgo
from repro.perfmodel.kernels import KernelTimeModel
from repro.perfmodel.machine import MachineSpec, juwels_booster
from repro.perfmodel.topology import FatTree
from repro.runtime.backend import CommBackend
from repro.runtime.clock import CostCategory
from repro.runtime.config import ExecutionConfig
from repro.runtime.faults import FaultInjector, FaultPlan, RecoveryExhaustedError
from repro.runtime.rank import RankContext
from repro.runtime.tracer import Tracer
from repro.runtime.transport import (
    Transport,
    create_transport,
    split_backend,
)

__all__ = ["VirtualCluster", "RankPartition"]

CHARGE_STORE_CAP = 16_384  # entries (~1.5 KiB each) before a whole clear
#: The process's recorded charges by value key (DESIGN.md §5j): replay
#: step records, their rank-id tuples, collective-cost tables, grouped
#: collective plans and HEMM programs.  Values only — no clocks, tracer
#: rows, CommStats or ndarrays — so clusters share them exactly.  Key
#: kinds differ in their first element's type or value.
CHARGE_STORE: dict = {}


def stored(key, make):
    """``CHARGE_STORE[key]``, made by ``make()`` at the first call."""
    value = CHARGE_STORE.get(key)
    if value is None:
        if len(CHARGE_STORE) >= CHARGE_STORE_CAP:
            CHARGE_STORE.clear()
        value = CHARGE_STORE[key] = make()
    return value


def _rank_index(ids):
    """The cheapest NumPy index of ``ids``: a basic slice when they step
    evenly (a grid row, a grid column, the whole grid), else an array."""
    ids = [int(r) for r in ids]
    if len(ids) < 2:
        return slice(ids[0], ids[0] + 1) if ids else slice(0, 0)
    step = ids[1] - ids[0]
    if step > 0 and all(b - a == step for a, b in zip(ids, ids[1:])):
        return slice(ids[0], ids[-1] + 1, step)
    return np.array(ids, dtype=np.intp)


class RankPartition:
    """Disjoint groups of a cluster's ranks that pass one barrier together.

    ``ids`` / ``order`` list every member, group after group, and
    ``starts`` delimits the groups in ``order``; ``slots[r]`` is rank
    ``r``'s group (the group count for ranks in none).  A set of
    communicators that issue one collective together (the row or the
    column communicators of a grid) is a partition, and
    :meth:`VirtualCluster.sync_groups` and the steps of
    :meth:`VirtualCluster.run` take it whole.
    """

    __slots__ = ("ids", "order", "starts", "slots", "top", "grid")

    def __init__(self, groups, n_slots: int) -> None:
        groups = [[int(r) for r in g] for g in groups]
        if not groups or not all(groups):
            raise ValueError("a partition needs non-empty groups")
        self.ids = tuple(r for g in groups for r in g)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("partition groups overlap")
        self.order = np.array(self.ids, dtype=np.intp)
        self.starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
        self.slots = np.full(n_slots, len(groups), dtype=np.intp)
        for k, g in enumerate(groups):
            self.slots[g] = k
        #: a barrier's per-group entry times; ranks in no group read the
        #: last slot, -inf, so max() leaves their clocks as they are
        self.top = np.full(len(groups) + 1, -np.inf)
        #: groups that are the rows (axis 1) or the columns (axis 0) of
        #: all ranks laid out row-major: ``(shape, axis)``, else None
        self.grid = None
        n, m = len(groups), len(groups[0])
        if len(self.ids) == n * m == n_slots:
            every = np.arange(n_slots)
            if np.array_equal(self.order, every):
                self.grid = (n, m), 1
            elif np.array_equal(self.order, every.reshape(m, n).T.ravel()):
                self.grid = (m, n), 0


class VirtualCluster:
    """A set of simulated ranks placed consecutively on nodes.

    The cluster owns every rank's modeled time: ``clocks`` and
    ``slowdowns`` are float64 vectors indexed by ``rank_id``, the tracer
    keeps its rows the same way, and the charge methods below are the one
    place a clock advances and the tracer is added to — for a group of
    ranks (:meth:`charge`) or a recorded program of whole-grid steps
    (:meth:`run`) per call (DESIGN.md §5j).  ``RankContext`` objects are
    single-id views.

    Parameters
    ----------
    n_ranks:
        Total MPI ranks.
    machine:
        Machine model; defaults to JUWELS-Booster.
    backend:
        Communication backend (NCCL / MPI_STAGED / MPI_HOST).
    ranks_per_node:
        Placement density.  The paper uses 4 (one rank per GPU) for
        STD/NCCL and 1 (one rank per node, 4 GPUs each) for LMS.
    gpus_per_rank:
        GPUs driven by each rank (4 for the LMS configuration).
    phantom:
        Accepted and unread: a phantom replay is chosen by its matrix
        (``DistributedHermitian.phantom``) and solve
        (``ChaseSolver.solve_phantom``), not by the cluster.
    placement:
        How ranks map to nodes.  ``"block"`` (default, what
        ``mpiexec`` does by default) puts consecutive ranks on the same
        node — with a row-major grid, *row* communicators then enjoy
        intra-node links; ``"round_robin"`` (cyclic placement) strides
        ranks across nodes — favouring *column* communicators instead.
        Placement changes which collectives cross the network, a real
        tuning lever on clusters (see
        ``benchmarks/bench_ablation_placement.py``).
    topology:
        Interconnect description for hop-aware collective costing
        (DESIGN.md §5e).  ``None`` (default) keeps the seed's flat
        intra/inter-node boolean; a :class:`FatTree` derates deep
        crossings; the string ``"auto"`` builds a two-level fat tree
        over the occupied nodes (8 nodes per leaf switch).
    collective_algo:
        The :class:`CollectiveAlgo` of every communicator built on this
        cluster, fixed at construction (``ring`` / ``tree`` / ``hierarchical`` / ``auto``).
        ``None`` is ``ring`` — the seed behavior, bit-identical charges.
    transport:
        Execution backend for the data plane (DESIGN.md §5h):
        ``"orchestrated"`` (in-process, the seed) or ``"mp"`` (one
        process per rank over shared memory), or an
        already-constructed :class:`~repro.runtime.transport.Transport`
        instance.  ``None`` is ``orchestrated``.
        ``backend`` also accepts these tokens as strings (the
        ``solve --backend mp`` surface, read by
        :func:`~repro.runtime.transport.split_backend`): a transport
        token selects the transport and keeps the NCCL communication
        model.
    config:
        The :class:`~repro.runtime.config.ExecutionConfig` every solve
        on this cluster executes under (``None`` = the defaults).  The
        HEMM, filter, QR, multivector constructors and the solver read
        it from here; survivor clusters inherit it.
    """

    def __init__(
        self,
        n_ranks: int,
        machine: MachineSpec | None = None,
        backend: CommBackend | str = CommBackend.NCCL,
        ranks_per_node: int | None = None,
        gpus_per_rank: int = 1,
        phantom: bool = False,
        placement: str = "block",
        topology: FatTree | str | None = None,
        collective_algo: CollectiveAlgo | str | None = None,
        transport: Transport | str | None = None,
        config: ExecutionConfig | None = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if isinstance(backend, str):
            backend, token = split_backend(backend)
            if token is not None:
                if transport is not None and getattr(
                        transport, "name", transport) != token:
                    raise ValueError(
                        f"backend={token!r} conflicts with "
                        f"transport={transport!r}")
                transport = token
        if placement not in ("block", "round_robin"):
            raise ValueError(f"unknown placement {placement!r}")
        self.machine = machine if machine is not None else juwels_booster()
        self.backend = backend
        if gpus_per_rank < 1:
            raise ValueError("gpus_per_rank must be >= 1")
        if ranks_per_node is None:
            ranks_per_node = max(self.machine.gpus_per_node // gpus_per_rank, 1)
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        self.ranks_per_node = ranks_per_node
        self.gpus_per_rank = gpus_per_rank
        self.placement = placement
        #: per-rank virtual time and compute-slowdown multiplier, indexed
        #: by rank_id; shared (not copied) with shrink() survivors
        # one block, one allocation: the two state vectors and the two
        # scratch vectors whole-grid steps work in
        block = np.zeros((4, n_ranks))
        self.clocks, self.slowdowns, self._step, self._scaled = block
        self.slowdowns[:] = 1.0
        self.tracer = Tracer(n_ranks)
        #: NumPy index of each rank-id tuple charged so far
        self._indices: dict[tuple, object] = {}
        #: index of the live ranks (``self.ranks``), for makespan/reset
        self._live = slice(0, n_ranks)
        #: ``listener(rank_ids, category, starts, ends)`` callables told of
        #: every charge, with each rank's own interval (see Timeline)
        self.charge_listeners: list = []
        gpu_spec = self.machine.gpu
        if gpus_per_rank > 1:
            gpu_spec = replace(
                gpu_spec,
                gemm_rate=gpu_spec.gemm_rate * gpus_per_rank,
                level3_rate=gpu_spec.level3_rate * gpus_per_rank,
                blas1_bandwidth=gpu_spec.blas1_bandwidth * gpus_per_rank,
            )
        #: device / host kernel time models, one per cluster (stateless)
        self.gpu_model = KernelTimeModel(gpu_spec)
        self.cpu_model = KernelTimeModel(self.machine.cpu)
        n_nodes = math.ceil(n_ranks / ranks_per_node)
        if topology == "auto":
            topology = FatTree(n_nodes, nodes_per_leaf=8)
        elif topology is not None and not isinstance(topology, FatTree):
            raise TypeError(f"topology must be a FatTree, 'auto' or None, "
                            f"got {topology!r}")
        self.topology = topology
        self.collective_algo = CollectiveAlgo.parse(collective_algo)
        if config is None:
            config = ExecutionConfig()
        elif not isinstance(config, ExecutionConfig):
            raise TypeError(
                f"config must be an ExecutionConfig, got {config!r}")
        self.config = config
        #: execution backend for the data plane (DESIGN.md §5h)
        if isinstance(transport, Transport):
            self.transport = transport
        else:
            self.transport = create_transport(transport, n_ranks)
        #: shared fault injector (DESIGN.md §5f); None = injection off
        self.faults: FaultInjector | None = None
        #: set by :meth:`shrink` — survivor clusters pin their node count
        #: to the surviving node set instead of the density formula
        self._fixed_n_nodes: int | None = None

        def node_of(r: int) -> int:
            if placement == "block":
                return r // ranks_per_node
            return r % n_nodes

        self.ranks: list[RankContext] = [
            RankContext(self, r, node_of(r)) for r in range(n_ranks)
        ]

    @property
    def n_ranks(self) -> int:
        """Total simulated MPI ranks."""
        return len(self.ranks)

    @property
    def n_nodes(self) -> int:
        """Number of (simulated) compute nodes occupied."""
        if self._fixed_n_nodes is not None:
            return self._fixed_n_nodes
        return math.ceil(self.n_ranks / self.ranks_per_node)

    # -- fault injection (DESIGN.md §5f) ---------------------------------------
    def attach_faults(self, plan: FaultPlan, *, max_retries: int = 3,
                      backoff_base: float = 2e-3) -> FaultInjector:
        """Arm a fault plan on every rank; returns the shared injector.

        Communicators and the solver consult the injector through
        ``rank.faults``; never attaching keeps every hook a no-op and
        the execution bit-identical to seed.
        """
        inj = FaultInjector(plan, self.n_ranks, max_retries=max_retries,
                            backoff_base=backoff_base)
        self.faults = inj
        for r in self.ranks:
            r.faults = inj
        return inj

    def shrink(self, dead_ranks) -> "VirtualCluster":
        """The surviving cluster after ``dead_ranks`` died.

        Survivor :class:`RankContext` objects are **reused** and keep
        indexing the shared ``clocks`` / ``slowdowns`` / tracer rows by
        their original ``rank_id`` — clocks, tracer accumulations and
        armed injector carry over, so the makespan of a recovered solve
        honestly includes everything paid before the failure.  Dead
        ranks keep their (now frozen) clocks but are marked
        ``alive = False`` and dropped.
        """
        dead = {int(r) for r in dead_ranks}
        survivors = [r for r in self.ranks if r.rank_id not in dead]
        if not survivors:
            raise RecoveryExhaustedError("no surviving ranks to recover onto")
        for r in self.ranks:
            if r.rank_id in dead:
                r.alive = False
        # a shallow copy shares everything but the rank list: clocks,
        # slowdowns, tracer, charge listeners, armed injector, execution
        # config, and the transport — survivors
        # keep their original lane indices (rank_id), so its rank team
        # carries over unchanged
        new = copy.copy(self)
        new.ranks = survivors
        new._live = _rank_index([r.rank_id for r in survivors])
        new._fixed_n_nodes = len({r.node for r in survivors})
        return new

    def close(self) -> None:
        """Release the execution backend's resources (idempotent).

        The orchestrated default holds none; the mp backend retires its
        worker processes and unlinks every shm segment.
        """
        self.transport.close()

    def __enter__(self) -> "VirtualCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- modeled time (DESIGN.md §5j) --------------------------------------------
    def index(self, rank_ids):
        """NumPy index of ``rank_ids`` (cached for the tuples of rank
        groups, which charge again and again)."""
        if type(rank_ids) is tuple:
            idx = self._indices.get(rank_ids)
            if idx is None:
                idx = self._indices[rank_ids] = _rank_index(rank_ids)
            return idx
        return _rank_index(rank_ids)

    def _tell(self, rank_ids, category, starts, ends) -> None:
        for listener in self.charge_listeners:
            listener(rank_ids, category, starts, ends)

    def charge(self, rank_ids, category: CostCategory, dt) -> None:
        """Advance ``rank_ids`` by ``dt`` seconds of ``category``: one
        float for the group, or a list/tuple with one float per rank.

        COMPUTE is multiplied by each rank's slowdown.  Every rank gets
        exactly the adds — clock, then tracer row — of a per-rank call,
        so group charging moves no modeled number as long as callers
        keep each rank's charge order.
        """
        if isinstance(dt, (list, tuple)):
            if min(dt) < 0:
                raise ValueError(f"negative {category.value} charge dt={dt}")
            dt = np.array(dt, dtype=np.float64)
        elif dt < 0:
            raise ValueError(f"negative {category.value} charge dt={dt}")
        idx = self.index(rank_ids)
        clocks = self.clocks
        starts = clocks[idx].tolist() if self.charge_listeners else None
        if category is CostCategory.COMPUTE:
            dt = dt * self.slowdowns[idx]
        clocks[idx] += dt
        self.tracer.row(category)[idx] += dt
        if starts is not None:
            self._tell(rank_ids, category, starts, clocks[idx].tolist())

    def run(self, steps) -> None:
        """Charge one recorded program (DESIGN.md §5j): ``steps`` in
        order, each a grouped barrier ``(partition,)``
        (:meth:`sync_groups`) or a run ``(category, table, slots,
        charged)`` of ``len(table)`` whole-grid steps.  Step ``s`` of a
        run advances rank ``r`` by ``table[s][slots[r]]`` seconds of
        ``category`` — ranks it does not charge read a ``0.0`` column,
        and adding ``0.0`` is exact — and names the ranks ``charged[s]``
        to listeners.  Each step gathers its row to ranks with one
        ``take`` into a scratch vector, multiplies COMPUTE by the
        slowdowns at call time and is one vector add to the clocks and
        one to the tracer row, in the run's order.  Recorders check a
        table's values non-negative once.
        """
        clocks, listening = self.clocks, bool(self.charge_listeners)
        for step in steps:
            if len(step) == 1:
                self.sync_groups(step[0])
                continue
            category, table, slots, charged = step
            compute = category is CostCategory.COMPUTE
            row = self.tracer.row(category) if table else None
            for values, ids in zip(table, charged):
                dt = np.array(values).take(slots, out=self._step)
                if compute:
                    dt = np.multiply(dt, self.slowdowns, out=self._scaled)
                if listening:
                    idx = self.index(ids)
                    starts = clocks[idx].tolist()
                clocks += dt
                row += dt
                if listening:
                    self._tell(ids, category, starts, clocks[idx].tolist())

    def book_hidden(self, rank_ids, dt, start: float) -> None:
        """Book COMM_HIDDEN on ``rank_ids`` (``dt`` as in :meth:`charge`)
        without advancing any clock; each rank's hidden interval is
        ``[start, start + dt]``, from the collective's entry time."""
        dts = list(dt) if isinstance(dt, (list, tuple)) \
            else [dt] * len(rank_ids)
        if min(dts) < 0:
            raise ValueError(f"negative hidden-comm charge dt={dt}")
        dts = [float(d) for d in dts]
        self.tracer.row(CostCategory.COMM_HIDDEN)[self.index(rank_ids)] \
            += np.array(dts)
        if self.charge_listeners:
            start = float(start)
            self._tell(rank_ids, CostCategory.COMM_HIDDEN,
                       [start] * len(dts), [start + d for d in dts])

    def sync(self, rank_ids, t: float | None = None) -> float:
        """Barrier entry: idle ``rank_ids`` forward to ``t`` (default: the
        furthest-ahead of them); returns ``t``.  The skipped interval is
        wait time, charged to no category."""
        idx = self.index(rank_ids)
        entry = self.clocks[idx]
        if t is None:
            t = entry.max()
        self.clocks[idx] = np.maximum(entry, t)
        return float(t)

    def sync_groups(self, part: RankPartition) -> None:
        """Grouped barrier entry: every group of ``part`` idles forward
        to the furthest-ahead clock among its own members, all groups in
        one vector step (the per-group :meth:`sync`, unrolled)."""
        if part.grid is not None:  # a grid's rows or columns: one reduce
            shape, axis = part.grid
            view = self.clocks.reshape(shape)
            np.maximum(view, np.maximum.reduce(view, axis=axis, keepdims=True),
                       out=view)
            return
        clocks, top = self.clocks, part.top
        entry = clocks.take(part.order, out=self._step[:len(part.order)])
        np.maximum.reduceat(entry, part.starts, out=top[:-1])
        np.maximum(clocks, top.take(part.slots, out=self._scaled), out=clocks)

    def makespan(self) -> float:
        """Current parallel time: the furthest-ahead rank clock."""
        return float(self.clocks[self._live].max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualCluster({self.n_ranks} ranks on {self.n_nodes} nodes, "
            f"backend={self.backend.value}, machine={self.machine.name})"
        )
