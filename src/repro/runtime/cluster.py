"""Virtual cluster: rank placement on nodes, shared tracer, backend."""

from __future__ import annotations

import copy
import math
from dataclasses import replace

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

__all__ = ["VirtualCluster"]


class VirtualCluster:
    """A set of simulated ranks placed consecutively on nodes.

    The cluster owns every rank's modeled time: ``clocks`` and
    ``slowdowns`` are flat lists indexed by ``rank_id``, the tracer keeps
    its rows the same way, and :meth:`charge` is the one place a clock
    advances and the tracer is added to — for a whole group of ranks per
    call (DESIGN.md §5j).  ``RankContext`` objects are single-id views.

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
        When True the caller intends to use metadata-only buffers; the
        flag is advisory (the kernels dispatch on the buffer type) but
        lets data-structure builders pick the right allocation.
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
        Default :class:`CollectiveAlgo` for communicators built on this
        cluster (``ring`` / ``tree`` / ``hierarchical`` / ``auto``).
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
        self.phantom = bool(phantom)
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
        self.clocks: list[float] = [0.0] * n_ranks
        self.slowdowns: list[float] = [1.0] * n_ranks
        self.tracer = Tracer(n_ranks)
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

    def set_collective_algo(self, algo: CollectiveAlgo | str | None
                            ) -> CollectiveAlgo:
        """Set the default algorithm for *future* communicators.

        Communicators already built (e.g. by an existing
        :class:`~repro.runtime.grid.Grid2D`) are not retargeted — use
        ``Grid2D.set_collective_algo`` for those.  Returns the previous
        default.
        """
        prev = self.collective_algo
        self.collective_algo = CollectiveAlgo.parse(algo)
        return prev

    # -- fault injection (DESIGN.md §5f) ---------------------------------------
    def attach_faults(self, plan: FaultPlan, *, max_retries: int = 3,
                      backoff_base: float = 2e-3) -> FaultInjector:
        """Arm a fault plan on every rank; returns the shared injector.

        Communicators and the solver consult the injector through
        ``rank.faults``; detaching (or never attaching) keeps every hook
        a no-op and the execution bit-identical to seed.
        """
        inj = FaultInjector(plan, self.n_ranks, max_retries=max_retries,
                            backoff_base=backoff_base)
        self.faults = inj
        for r in self.ranks:
            r.faults = inj
        return inj

    def detach_faults(self) -> None:
        """Disarm fault injection on every rank."""
        self.faults = None
        for r in self.ranks:
            r.faults = None

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
    def charge(self, rank_ids, category: CostCategory, dt) -> None:
        """Advance ``rank_ids`` by ``dt`` seconds of ``category``: one
        float for the group, or a list/tuple with one float per rank.

        COMPUTE is multiplied by each rank's slowdown.  Every rank gets
        exactly the adds — clock, then tracer row — of a per-rank call,
        so group charging moves no modeled number as long as callers
        keep each rank's charge order.
        """
        per_rank = isinstance(dt, (list, tuple))
        if (min(dt) if per_rank else dt) < 0:
            raise ValueError(f"negative {category.value} charge dt={dt}")
        clocks = self.clocks
        row = self.tracer.row(category)
        starts = [clocks[r] for r in rank_ids] if self.charge_listeners else None
        if category is CostCategory.COMPUTE:
            slow = self.slowdowns
            if per_rank:
                for r, d in zip(rank_ids, dt):
                    d = d * slow[r]
                    clocks[r] += d
                    row[r] += d
            else:
                for r in rank_ids:
                    d = dt * slow[r]
                    clocks[r] += d
                    row[r] += d
        elif per_rank:
            for r, d in zip(rank_ids, dt):
                clocks[r] += d
                row[r] += d
        else:
            for r in rank_ids:
                clocks[r] += dt
                row[r] += dt
        if starts is not None:
            ends = [clocks[r] for r in rank_ids]
            for listener in self.charge_listeners:
                listener(rank_ids, category, starts, ends)

    def book_hidden(self, rank_ids, dt, start: float) -> None:
        """Book COMM_HIDDEN on ``rank_ids`` (``dt`` as in :meth:`charge`)
        without advancing any clock; each rank's hidden interval is
        ``[start, start + dt]``, from the collective's entry time."""
        dts = dt if isinstance(dt, (list, tuple)) else [dt] * len(rank_ids)
        if min(dts) < 0:
            raise ValueError(f"negative hidden-comm charge dt={dt}")
        row = self.tracer.row(CostCategory.COMM_HIDDEN)
        for r, d in zip(rank_ids, dts):
            row[r] += d
        for listener in self.charge_listeners:
            listener(rank_ids, CostCategory.COMM_HIDDEN,
                     [start] * len(dts), [start + d for d in dts])

    def sync(self, rank_ids, t: float | None = None) -> float:
        """Barrier entry: idle ``rank_ids`` forward to ``t`` (default: the
        furthest-ahead of them); returns ``t``.  The skipped interval is
        wait time, charged to no category."""
        clocks = self.clocks
        if t is None:
            t = max([clocks[r] for r in rank_ids])
        for r in rank_ids:
            if clocks[r] < t:
                clocks[r] = t
        return t

    def makespan(self) -> float:
        """Current parallel time: the furthest-ahead rank clock."""
        return max(self.clocks[r.rank_id] for r in self.ranks)

    def reset_clocks(self) -> None:
        """Zero every rank clock and clear the tracer (fresh experiment)."""
        for r in self.ranks:
            self.clocks[r.rank_id] = 0.0
        self.tracer.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualCluster({self.n_ranks} ranks on {self.n_nodes} nodes, "
            f"backend={self.backend.value}, machine={self.machine.name})"
        )
