"""ELPA on the virtual cluster: a cost-charged two-stage eigensolver.

While :class:`repro.baselines.elpa.ElpaModel` is a closed-form scaling
model, this module *executes* ELPA's stage structure on the simulated
cluster, charging every panel's compute and communication through the
same machinery as ChASE — per-rank clocks, communicators,
:class:`CostCategory` accounting — so the Fig. 3b baseline can be
produced by an executed algorithm instead of a formula:

* **stage 1, dense -> band** (ELPA2) or dense -> tridiagonal (ELPA1):
  for each of the ``N/nb`` panels, the owner column factorizes the
  panel (GEQRF), broadcasts it along its row communicator, and all
  ranks apply the two-sided blocked update (GEMM-rich), with the
  symmetric-rank-2k reduction allreduced along column communicators;
* **stage 2, band -> tridiagonal** (ELPA2 only): bulge chasing —
  bandwidth-bound BLAS-1/2 sweeps with little parallelism across one
  grid dimension;
* **tridiagonal divide & conquer**: eigenvalues of the tridiagonal
  matrix plus ``nev`` eigenvector back-transforms;
* **back-transformation**: one (ELPA1) or two (ELPA2) distributed
  GEMM applications of the stored reflectors to the ``nev`` vectors.

Numerics come from :func:`repro.baselines.elpa_numeric.elpa2_numeric`
on the gathered matrix (orchestrator-level; the simulated cluster's
blocks live in one process anyway), so small instances return true
eigenpairs while the cost accounting reflects the distributed run.

Per-stage efficiencies are shared with the closed-form model's
calibration (`_CALIB` in :mod:`repro.baselines.elpa`), and a test pins
the two within a factor of each other at the calibrated node counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.elpa import ELPA_NB, ElpaVariant, _CALIB
from repro.baselines.elpa_numeric import elpa2_numeric
from repro.distributed.hermitian import DistributedHermitian
from repro.perfmodel.collectives import MpiModel, NcclModel
from repro.perfmodel.kernels import complex_factor
from repro.runtime.backend import CommBackend
from repro.runtime.grid import Grid2D

__all__ = ["DistributedElpa", "ElpaRunResult"]


@dataclass
class ElpaRunResult:
    """Outcome of a (possibly phantom) distributed ELPA run."""

    eigenvalues: np.ndarray | None
    eigenvectors: np.ndarray | None
    makespan: float
    stage_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class DistributedElpa:
    """Two-stage (ELPA2) or one-stage (ELPA1) solver on the virtual grid."""

    grid: Grid2D
    H: DistributedHermitian
    variant: ElpaVariant = ElpaVariant.ELPA2
    nb: int = ELPA_NB

    def _charge_all(self, seconds: float, phase: str) -> None:
        tracer = self.grid.cluster.tracer
        with tracer.phase(phase):
            self.grid.everyone.charge_compute(seconds)

    def _charge_comm(self, seconds: float, phase: str) -> None:
        tracer = self.grid.cluster.tracer
        with tracer.phase(phase):
            for i in range(self.grid.p):
                self.grid.row_comm(i).charge_collective(seconds)

    def solve(self, nev: int) -> ElpaRunResult:
        """Charge the full run; numerics for real (non-phantom) inputs."""
        grid, H = self.grid, self.H
        N = H.N
        if not 1 <= nev <= N:
            raise ValueError(f"nev={nev} out of range for N={N}")
        machine = grid.cluster.ranks[0].machine
        eff_bulk, panel_share, panel_rate, panel_sync = _CALIB[self.variant]
        c = complex_factor(H.dtype)
        P = grid.p * grid.q
        gemm_rate = grid.cluster.ranks[0].gpu_spec.gemm_rate
        comm_model = (
            NcclModel(machine)
            if grid.cluster.backend is CommBackend.NCCL
            else MpiModel(machine)
        )
        itemsize = np.dtype(H.dtype).itemsize
        t0 = grid.cluster.makespan()
        stages: dict[str, float] = {}

        # ---- stage 1: blocked reduction (dense -> band / tridiagonal) ----
        n_panels = math.ceil(N / self.nb)
        flops_total = (4.0 / 3.0) * N**3 * c
        # bulk trailing updates: embarrassingly parallel GEMM work
        bulk = flops_total * (1.0 - panel_share)
        self._charge_all(bulk / (P * gemm_rate * eff_bulk), "elpa-reduce")
        # panel factorizations: critical path along one grid dimension;
        # look-ahead pipelines each panel with the previous trailing
        # update, hiding about half of its latency
        panel = flops_total * panel_share
        self._charge_all(panel / (2.0 * grid.p * panel_rate), "elpa-reduce")
        # per-panel communication: reflector broadcast + rank-2k allreduce
        per_panel_bytes = (N / grid.p) * self.nb * itemsize
        t_comm = n_panels * (
            comm_model.bcast(per_panel_bytes, grid.q, True)
            + comm_model.allreduce(self.nb * self.nb * itemsize, grid.p, True)
        )
        self._charge_comm(t_comm, "elpa-reduce")
        # per-panel host synchronization (the non-scaling floor)
        self._charge_all(n_panels * panel_sync, "elpa-reduce")
        stages["reduce"] = grid.cluster.makespan() - t0

        # ---- stage 2: band -> tridiagonal (ELPA2 only) -------------------
        t1 = grid.cluster.makespan()
        if self.variant is ElpaVariant.ELPA2:
            # bulge chasing: ~6 N^2 b flops, bandwidth-bound, parallel
            # only along one grid dimension
            bytes_touched = 6.0 * N * N * self.nb * itemsize / 8
            bw = grid.cluster.ranks[0].gpu_spec.blas1_bandwidth
            self._charge_all(bytes_touched / (grid.p * bw), "elpa-band2tri")
        stages["band2tri"] = grid.cluster.makespan() - t1

        # ---- tridiagonal D&C + back-transform ----------------------------
        t2 = grid.cluster.makespan()
        dc_flops = (4.0 / 3.0) * N * N + 4.0 * N * nev
        cpu_rate = machine.cpu.gemm_rate
        self._charge_all(dc_flops / (P * cpu_rate), "elpa-dc")
        n_back = 2 if self.variant is ElpaVariant.ELPA2 else 1
        back_flops = n_back * 2.0 * N * N * nev * c
        self._charge_all(
            back_flops / (P * gemm_rate * eff_bulk), "elpa-back"
        )
        self._charge_comm(
            (N / grid.p) * nev * itemsize / machine.ib_nccl.bandwidth,
            "elpa-back",
        )
        stages["solve+back"] = grid.cluster.makespan() - t2

        # ---- numerics -----------------------------------------------------
        w = V = None
        if not grid.cluster.phantom and not _is_phantom_matrix(H):
            dense = H.to_dense()
            w, V = elpa2_numeric(dense, nev, band=max(self.nb, 2))
        return ElpaRunResult(
            eigenvalues=w,
            eigenvectors=V,
            makespan=grid.cluster.makespan() - t0,
            stage_seconds=stages,
        )


def _is_phantom_matrix(H: DistributedHermitian) -> bool:
    from repro.arrays import is_phantom

    return is_phantom(next(iter(H.blocks.values())))
