"""Simplified ELPA direct eigensolver (the Fig. 3b baseline).

ELPA solves the full dense Hermitian problem by (one- or two-stage)
tridiagonalization + divide & conquer + back-transformation.  The paper
compares ChASE against ELPA1-GPU and ELPA2-GPU (version 2022.11.001.rc1,
block-cyclic block size 16) on the In2O3 115k problem.

:class:`ElpaModel` is a documented **phenomenological cost model**

    t(nodes) = A / nodes + B / sqrt(nodes) + C

where

- ``A`` is the embarrassingly parallel bulk work (blocked
  tridiagonalization / band reduction updates + back-transform GEMMs)
  executed at a calibrated fraction of the device GEMM rate,
- ``B`` is the panel work on the critical path, which only
  parallelizes along one dimension of the 2D grid (hence the
  ``1/sqrt(nodes)`` scaling),
- ``C`` is the per-panel synchronization/communication floor
  (``N / nb`` panels, each paying a fixed host/MPI round-trip).

The three terms are derived from flop counts and machine rates with
per-variant calibration constants (``EFF_BULK``, ``PANEL_SHARE``,
``PANEL_RATE``, ``PANEL_SYNC``), chosen so that the modeled strong
scaling of the 115k problem matches the paper's reported speedups
(ELPA1-GPU 6.7x, ELPA2-GPU 5.9x from 4 to 144 nodes, ~98 s for
ELPA2-GPU at 144 nodes).  This is a *shape* model — exactly what the
reproduction needs for "who wins, by how much, where the gap grows".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.perfmodel.kernels import complex_factor
from repro.perfmodel.machine import MachineSpec, juwels_booster

__all__ = ["ElpaVariant", "ElpaModel"]


class ElpaVariant(enum.Enum):
    """ELPA's two tridiagonalization strategies."""

    ELPA1 = "elpa1"  # one-stage Householder tridiagonalization
    ELPA2 = "elpa2"  # two-stage: full -> band -> tridiagonal


#: per-variant calibration constants (GPU builds)
_CALIB = {
    # (bulk efficiency vs GEMM rate, panel share of bulk flops,
    #  panel rate FLOP/s, per-panel sync seconds)
    ElpaVariant.ELPA1: (0.11, 0.15, 0.37e12, 4.0e-3),
    ElpaVariant.ELPA2: (0.155, 0.10, 0.34e12, 5.5e-3),
}

#: ELPA block-cyclic block size used in the paper's runs
ELPA_NB = 16


@dataclass(frozen=True)
class ElpaModel:
    """Strong/weak-scaling time model for ELPA-GPU."""

    variant: ElpaVariant
    machine: MachineSpec | None = None

    def _machine(self) -> MachineSpec:
        return self.machine if self.machine is not None else juwels_booster()

    def bulk_flops(self, N: int, nev: int, dtype=np.complex128) -> float:
        """Tridiagonalization/band reduction + back-transform flops."""
        c = complex_factor(dtype)
        tridiag = (4.0 / 3.0) * N**3 * c
        # ELPA2 back-transforms through two stages (band and tridiagonal)
        n_back = 2 if self.variant is ElpaVariant.ELPA2 else 1
        back = n_back * 2.0 * N * N * nev * c
        return tridiag + back

    def time_to_solution(
        self, N: int, nev: int, nodes: int, dtype=np.complex128
    ) -> float:
        """Modeled seconds for ``nev`` eigenpairs of an ``N x N`` problem."""
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        m = self._machine()
        eff_bulk, panel_share, panel_rate, panel_sync = _CALIB[self.variant]
        flops = self.bulk_flops(N, nev, dtype)
        node_rate = m.gpus_per_node * m.gpu.gemm_rate * eff_bulk
        A = flops / node_rate
        B = panel_share * flops / (m.gpus_per_node * panel_rate)
        C = (N / ELPA_NB) * panel_sync
        return A / nodes + B / math.sqrt(nodes) + C
