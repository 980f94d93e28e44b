"""Calibrate a :class:`MachineSpec` against the *local* host.

The shipped machine models (JUWELS-Booster, LUMI-G) answer "what would
this run cost on the paper's testbed".  For a complementary question —
"what does the simulated algorithm predict for *my* machine" — this
module micro-benchmarks the local BLAS/LAPACK through NumPy/SciPy and
assembles a single-node :class:`MachineSpec` whose devices carry the
measured rates.  The same solver + phantom machinery then models local
runs; :func:`examples.local_model` (see ``examples/``) demonstrates the
round trip (predicted vs measured wall time of a real solve).

One knob calibration does **not** measure: the nonblocking **overlap
efficiency** (``CollectiveModel.overlap_efficiency``, DESIGN.md §5d) —
the fraction of an in-flight collective that progresses behind compute.
It is a property of the *communication stack*, not of local kernel
rates: device-side NCCL collectives progress at full rate (default
1.0), host-progressed staged MPI competes with the proxy thread
(default 0.35).  No solve issues a nonblocking collective, so the knob
moves no solve's model; a caller of ``Communicator.iallreduce`` who
wants it calibrated times a compute-overlapped ``Iallreduce`` against a
back-to-back one and sets the measured fraction per communicator
(``Communicator.set_overlap_efficiency``); ``0.0`` is fully blocking.

The same applies to the **topology derates** of the hierarchical
collectives (``CollectiveModel.hop_latency`` and ``oversub_penalty``,
DESIGN.md §5e): a single-node calibration sees no switch fabric, so the
defaults are kept and every communicator on a calibrated machine is
intra-node — :func:`~repro.perfmodel.collectives.collective_cost`
degenerates to the flat model and the algorithm choice (including
``--coll-algo`` and ``repro tune``'s winner) changes nothing
locally, exactly as on one real node.  To calibrate the derates on a
cluster, fit ``hop_latency`` to the latency gap between same-leaf and
cross-core ping-pongs and ``oversub_penalty`` to the busbw loss of an
all-to-all at full core oversubscription.

A note on the mixed-precision **condition-estimate threshold**
(``repro.core.precision.DEFAULT_COND_LIMIT = 1e6``, DESIGN.md §5g):
this is *not* a machine property and calibration leaves it alone.  fp32
can resolve column bases up to ``kappa ~ 1/eps32 ~ 8.4e6``; the default
keeps one order of magnitude of safety margin so that CholeskyQR on the
fp32-filtered block stays out of its shifted regime (Algorithm 4
switches variants on the same estimate — aligning the two thresholds
means a block the policy deems fp32-safe is also one plain CholeskyQR2
factorizes without shifting).  Tighten it only together with evidence
from the residual-floor telemetry (``ChaseResult.precision_log`` /
``precision_promote_reason``): if solves promote on "residual
stagnation" rather than "residual floor", fp32 noise is biting earlier
than the conditioning gate predicts and the limit should come down.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

from repro.perfmodel.machine import DeviceSpec, LinkSpec, MachineSpec
from repro.runtime import blas

__all__ = [
    "measure_rate",
    "calibrate_local_machine",
]


def measure_rate(kind: str, n: int = 512, repeats: int = 3,
                 dtype=np.float64) -> float:
    """Measured FLOP/s of one local kernel class.

    ``kind`` is one of ``gemm``, ``syrk``, ``potrf``, ``geqrf``;
    ``dtype`` picks the working precision (fp32 measures the local
    BLAS's single-precision rate for the §5g rate table).
    """
    rng = np.random.default_rng(0)
    dt = np.dtype(dtype)
    A = rng.standard_normal((n, n)).astype(dt, copy=False)
    B = rng.standard_normal((n, n)).astype(dt, copy=False)
    G = (A @ A.T + n * np.eye(n, dtype=dt)).astype(dt, copy=False)
    tall = rng.standard_normal((4 * n, n // 4)).astype(dt, copy=False)

    if kind == "gemm":
        flops = 2.0 * n**3
        def op():
            return A @ B
    elif kind == "syrk":
        flops = float(n) * (n + 1) * n
        def op():
            return A.T @ A
    elif kind == "potrf":
        flops = n**3 / 3.0
        def op():
            return np.linalg.cholesky(G)
    elif kind == "geqrf":
        m, k = tall.shape
        flops = 2.0 * m * k * k - 2.0 * k**3 / 3.0
        def op():
            return scipy.linalg.qr(tall, mode="economic")
    else:
        raise KeyError(f"unknown kernel kind {kind!r}")

    op()  # warm up
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - t0)
    return flops / best


def measure_bandwidth(nbytes: int = 64 * 1024 * 1024, repeats: int = 3) -> float:
    """Measured streaming bandwidth (B/s) of a copy-scale kernel."""
    x = np.zeros(nbytes // 8)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        y = 2.0 * x
        best = min(best, time.perf_counter() - t0)
        del y
    return 2 * nbytes / best  # read + write


@blas.one_pool_scope()
def calibrate_local_machine(n: int = 512) -> MachineSpec:
    """A single-node machine model with locally measured rates.

    The 'GPU' of the model is the host BLAS itself (this is a CPU-only
    calibration); links are fast local-memory placeholders, making the
    model useful for predicting *compute-bound* behaviour of the
    simulated algorithms on this machine.

    The **rate table** (DESIGN.md §5g) is calibrated too: the fp32
    factor is the measured fp32/fp64 GEMM rate ratio, clamped to
    ``[1, 4]``.  fp64 is always 1.0 by construction and never appears
    in the table.
    """
    gemm = measure_rate("gemm", n)
    level3 = measure_rate("syrk", n)
    factor = measure_rate("potrf", n)
    geqrf = measure_rate("geqrf", n)
    gemm32 = measure_rate("gemm", n, dtype=np.float32)
    fp32_factor = max(1.0, min(4.0, gemm32 / gemm))
    bw = measure_bandwidth()
    dev = DeviceSpec(
        name="local-blas",
        gemm_rate=gemm,
        level3_rate=level3,
        factor_rate=factor,
        geqrf_rate=geqrf,
        blas1_bandwidth=bw,
        launch_overhead=2e-6,
        eff_half_flops=5e6,
        memory_bytes=8 * 1024**3,
        rate_table=(("fp32", fp32_factor),),
    )
    link = LinkSpec("local", latency=5e-7, bandwidth=bw)
    return MachineSpec(
        name="local-host",
        gpus_per_node=1,
        gpu=dev,
        cpu=dev,
        pcie=LinkSpec("copy", latency=1e-7, bandwidth=bw),
        nvlink=link,
        shm_mpi=link,
        ib_mpi=link,
        ib_nccl=link,
        max_nodes=1,
        mpi_call_overhead=1e-6,
        nccl_call_overhead=1e-6,
    )
