"""Analytic performance model of the paper's testbed (JUWELS-Booster).

The model supplies three ingredients consumed by :mod:`repro.runtime`:

* :mod:`repro.perfmodel.machine` — machine constants (A100 / EPYC rates,
  NVLink / InfiniBand / PCIe links) bundled in :class:`MachineSpec`;
* :mod:`repro.perfmodel.kernels` — flop counts and modeled times for the
  BLAS/LAPACK kernels ChASE calls (GEMM/HEMM, SYRK, POTRF, TRSM, GEQRF,
  HEEVD, batched BLAS-1);
* :mod:`repro.perfmodel.collectives` — latency/bandwidth models for MPI
  (binomial broadcast, recursive-doubling allreduce with the
  power-of-two round penalty the paper observes in Fig. 3a) and NCCL
  (ring) collectives;
* :mod:`repro.perfmodel.memory` — the per-rank memory footprint of
  Eq. (2) and the v1.2 (LMS) footprint used to reproduce the paper's
  out-of-memory boundary at 144 nodes.
"""

from repro.perfmodel.machine import (
    MachineSpec,
    DeviceSpec,
    LinkSpec,
    juwels_booster,
)
from repro.perfmodel.kernels import (
    gemm_flops,
    syrk_flops,
    potrf_flops,
    trsm_flops,
    geqrf_flops,
    heevd_flops,
    KernelTimeModel,
)
from repro.perfmodel.collectives import (
    CollectiveAlgo,
    CollectiveCharge,
    CollectiveModel,
    CommTopology,
    MpiModel,
    NcclModel,
    collective_cost,
)
from repro.perfmodel.topology import FatTree
from repro.perfmodel.autotune import (
    TuneConfig,
    TuneReport,
    TuneResult,
    autotune,
    default_config,
    enumerate_candidates,
)
from repro.perfmodel.memory import (
    chase_new_scheme_bytes,
    chase_lms_bytes,
    fits_on_device,
)

__all__ = [
    "MachineSpec",
    "DeviceSpec",
    "LinkSpec",
    "juwels_booster",
    "gemm_flops",
    "syrk_flops",
    "potrf_flops",
    "trsm_flops",
    "geqrf_flops",
    "heevd_flops",
    "KernelTimeModel",
    "CollectiveModel",
    "MpiModel",
    "NcclModel",
    "CollectiveAlgo",
    "CollectiveCharge",
    "CommTopology",
    "collective_cost",
    "FatTree",
    "TuneConfig",
    "TuneReport",
    "TuneResult",
    "autotune",
    "default_config",
    "enumerate_candidates",
    "chase_new_scheme_bytes",
    "chase_lms_bytes",
    "fits_on_device",
]
