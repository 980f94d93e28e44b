"""Rank views of a cluster: one simulated MPI process, or a group of them.

Modeled time lives on the :class:`~repro.runtime.cluster.VirtualCluster`
(per-rank float64 vectors of clocks, slowdowns and tracer rows) and
reaches it through the cluster's charge methods only.  :class:`RankGroup` names a set of rank
ids and forwards charges for all of them in one call — the charge classes
of :class:`~repro.runtime.grid.Grid2D` and the communicators are rank
groups; :class:`RankContext` is the single-id group with the per-rank
attributes (node, grid coordinates, liveness) on top.
"""

from __future__ import annotations

from functools import cached_property, partial

from repro.perfmodel.kernels import KernelTimeModel
from repro.runtime.backend import CommBackend
from repro.runtime.clock import CostCategory
from repro.runtime.device import LocalKernels

__all__ = ["RankGroup", "RankContext"]


class RankGroup:
    """Ranks that are charged together.

    A charge is a function of (shapes, dtype, device spec), so ranks
    holding equally shaped blocks receive one charge call: the kernel
    sets ``gpu`` / ``cpu`` sink into ``cluster.charge(ids, COMPUTE, dt)``
    — each member's own slowdown still applies, inside that call — and
    ``charge_*`` / ``stage_*`` book the other categories the same way.

    ``gpu`` is the device kernel set (GEMM-like rates scaled by the
    rank's GPU count, see :attr:`VirtualCluster.gpu_model`), ``cpu`` the
    host set used for the BLAS-1 residual reductions the STD/LMS builds
    keep on the CPU (paper Sec. 3.3).
    """

    def __init__(self, cluster, ids) -> None:
        self.cluster = cluster
        self.ids = tuple(ids)

    def _kernels(self, model: KernelTimeModel) -> LocalKernels:
        return LocalKernels(model, partial(
            self.cluster.charge, self.ids, CostCategory.COMPUTE))

    # built at first use: the charge classes run the kernels, few ranks do
    @cached_property
    def gpu(self) -> LocalKernels:
        return self._kernels(self.cluster.gpu_model)

    @cached_property
    def cpu(self) -> LocalKernels:
        return self._kernels(self.cluster.cpu_model)

    @property
    def machine(self):
        return self.cluster.machine

    @property
    def backend(self) -> CommBackend:
        return self.cluster.backend

    # default kernel set: device-resident builds compute on the GPU
    @property
    def k(self) -> LocalKernels:
        return self.gpu if self.backend.device_resident else self.cpu

    @property
    def qr_kernels(self) -> LocalKernels:
        """Kernel set for the CholeskyQR factorization kernels.

        The STD build keeps the QR on the host: with per-kernel staging
        and MPI collectives in between, offloading the tall-skinny QR
        kernels buys nothing — this placement is what reproduces the
        paper's Fig. 2 QR ratios (LMS/STD ~22x, STD/NCCL ~51x).  The
        NCCL build runs them on the device; CPU builds on the host.
        """
        if self.backend is CommBackend.MPI_STAGED:
            return self.cpu
        return self.k

    # -- cost charging ----------------------------------------------------------
    def charge_compute(self, dt: float) -> None:
        """Advance every member by ``dt`` seconds of COMPUTE (times its
        own slowdown)."""
        self.cluster.charge(self.ids, CostCategory.COMPUTE, dt)

    def charge_comm(self, dt: float) -> None:
        """Advance every member by ``dt`` seconds of COMMUNICATION."""
        self.cluster.charge(self.ids, CostCategory.COMM, dt)

    def charge_datamove(self, dt: float) -> None:
        """Advance every member by ``dt`` seconds of host-device DATAMOVE."""
        self.cluster.charge(self.ids, CostCategory.DATAMOVE, dt)

    def charge_recovery(self, dt: float) -> None:
        """Advance every member by ``dt`` seconds of RECOVERY overhead.

        Checkpoint I/O, collective retry backoff and post-failure
        re-layout are real wall time (DESIGN.md §5f): they advance the
        clock like any other charge but are accounted in their own
        category so fault-tolerance overhead stays visible.
        """
        self.cluster.charge(self.ids, CostCategory.RECOVERY, dt)

    def charge_comm_hidden(self, dt: float, start: float) -> None:
        """Book ``dt`` seconds of communication hidden behind compute.

        Hidden communication progressed concurrently with already-charged
        COMPUTE intervals (nonblocking collectives, DESIGN.md §5d), so it
        does **not** advance the clock — it is recorded in the tracer
        (and, by an attached :class:`~repro.runtime.timeline.Timeline`,
        as an interval ``[start, start + dt]`` overlapping the compute it
        hid behind).
        """
        self.cluster.book_hidden(self.ids, dt, start)

    # -- host-device staging -------------------------------------------------------
    def stage(self, nbytes: float, direction: str) -> None:
        """Copy ``nbytes`` device -> host (``"d2h"``) or back (``"h2d"``)
        over PCIe — the link is symmetric — charged as DATAMOVE."""
        if direction not in ("d2h", "h2d"):
            raise ValueError(f"unknown staging direction {direction!r}")
        self.charge_datamove(self.machine.pcie.time(nbytes))

    def stage_d2h(self, nbytes: float) -> None:
        self.stage(nbytes, "d2h")


class RankContext(RankGroup):
    """One simulated MPI rank: a single-id view of its cluster's state.

    The paper's configurations map to:

    * ChASE(STD)/ChASE(NCCL): ``gpus_per_rank=1`` (4 ranks/node);
    * ChASE(LMS): ``gpus_per_rank=4`` (1 rank/node) — GEMM-like kernels
      are split across the node's GPUs (rates scaled 4x) while the
      redundant factorizations run on a single device.
    """

    def __init__(self, cluster, rank_id: int, node: int) -> None:
        super().__init__(cluster, (int(rank_id),))
        self.rank_id = self.ids[0]
        self.node = int(node)
        self.coords: tuple[int, int] | None = None  # set by Grid2D
        #: fault injector shared by the owning cluster (None = fault
        #: injection disabled; every hook is then a no-op)
        self.faults = None
        #: False once a scheduled RANK_DEATH event has been observed
        #: and the rank dropped from the surviving grid
        self.alive = True

    @property
    def now(self) -> float:
        """This rank's modeled time: its slot of the cluster's clocks."""
        return float(self.cluster.clocks[self.rank_id])

    @property
    def gpu_spec(self):
        return self.cluster.gpu_model.device

    @property
    def slowdown(self) -> float:
        """Compute-slowdown multiplier (1.0 = nominal).  Setting it above
        1 models a straggler (thermally throttled GPU, noisy neighbour);
        collectives then propagate its delay to every coupled rank
        through the barrier semantics."""
        return float(self.cluster.slowdowns[self.rank_id])

    @slowdown.setter
    def slowdown(self, factor: float) -> None:
        self.cluster.slowdowns[self.rank_id] = factor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankContext(id={self.rank_id}, node={self.node}, "
            f"coords={self.coords}, t={self.now:.4f})"
        )
