"""Machine descriptions used by the performance model.

The reference target is JUWELS-Booster (the paper's testbed): 936 nodes,
each with 2x AMD EPYC 7402 (48 cores) and 4x NVIDIA A100-40GB, connected
by 4x InfiniBand HDR200 adapters (one per GPU).  Constants below are
effective (achievable) rates, not peaks, calibrated so that the modeled
single-node, single-iteration ChASE time matches the paper's Fig. 3a
anchor point (~2.3 s for N=30k, ne=3000, deg=20 with ChASE(NCCL)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DeviceSpec", "LinkSpec", "MachineSpec", "juwels_booster"]


@dataclass(frozen=True)
class DeviceSpec:
    """Effective execution rates of one compute device (GPU or CPU socket share).

    Rates are in FLOP/s of *double precision real* arithmetic; complex
    kernels account for their higher flop count in the kernel model, not
    here.  ``eff_half_flops`` parameterizes the small-problem efficiency
    ramp: a kernel of ``f`` flops runs at ``rate * f / (f + eff_half_flops)``.

    ``rate_table`` holds the calibrated throughput multiplier of fp32
    relative to the fp64 rates (DESIGN.md §5g).  The default is the
    classic 2x of vendor BLAS; ``perfmodel.calibrate`` measures and
    overrides it per machine.
    fp64 is *never* in the table: its factor is exactly 1.0 by
    construction, so the default path multiplies rates by 1.0 and every
    bit-identity gate survives.
    """

    name: str
    gemm_rate: float              # large-GEMM effective rate (FLOP/s)
    level3_rate: float            # SYRK/TRSM effective rate
    factor_rate: float            # POTRF/HEEVD blocked-factorization rate
    geqrf_rate: float             # tall-skinny Householder QR rate (panel-bound)
    blas1_bandwidth: float        # streaming bandwidth for BLAS-1 (B/s)
    launch_overhead: float        # fixed per-kernel overhead (s)
    eff_half_flops: float         # flops at which efficiency reaches 50%
    memory_bytes: int             # device memory capacity
    rate_table: tuple[tuple[str, float], ...] = (("fp32", 2.0),)

    def rate_factor(self, token: str) -> float | None:
        """Calibrated throughput multiplier for a precision token, or
        ``None`` when the table has no entry (callers fall back to the
        model-wide defaults).  fp64 is always exactly 1.0."""
        if token in ("fp64", "float64", "complex128"):
            return 1.0
        for name, factor in self.rate_table:
            if name == token:
                return float(factor)
        return None


@dataclass(frozen=True)
class LinkSpec:
    """A latency/bandwidth (alpha-beta) link model."""

    name: str
    latency: float                # alpha (s per message)
    bandwidth: float              # beta^-1 (B/s)

    def time(self, nbytes: float) -> float:
        """Alpha-beta transfer time for one message of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class MachineSpec:
    """A cluster description: node counts, devices and interconnect."""

    name: str
    gpus_per_node: int
    gpu: DeviceSpec
    cpu: DeviceSpec                       # per-rank CPU share
    pcie: LinkSpec                        # host <-> device staging
    nvlink: LinkSpec                      # intra-node GPU <-> GPU
    shm_mpi: LinkSpec                     # intra-node, MPI shared memory
    ib_mpi: LinkSpec                      # inter-node, through MPI stack
    ib_nccl: LinkSpec                     # inter-node, through NCCL/GPUDirect
    max_nodes: int = 936
    # Extra fixed software overhead charged per MPI collective call
    # (matching the paper's observation that MPI collectives carry a
    # large constant cost relative to NCCL at these message sizes).
    mpi_call_overhead: float = 30e-6
    nccl_call_overhead: float = 12e-6

    def with_gpu(self, **kw) -> "MachineSpec":
        """A copy of this machine with GPU fields overridden (for sweeps)."""
        return replace(self, gpu=replace(self.gpu, **kw))


def juwels_booster() -> MachineSpec:
    """The paper's testbed.

    * A100 DGEMM with TF64 tensor cores sustains ~15 TF/s on large tiles;
      ZGEMM effective rate is comparable per real flop.
    * cuSOLVER blocked factorizations (POTRF/HEEVD) reach ~2.2 TF/s;
      tall-skinny GEQRF+UNGQR is panel-bound and far slower (~0.2 TF/s),
      which is what makes the v1.2 redundant QR so expensive (Table 2).
    * PCIe gen4 x16 staging: ~22 GB/s with ~10 us setup.
    * One HDR200 adapter per GPU: ~25 GB/s peak; MPI sustains ~9 GB/s
      effective for large allreduce payloads (protocol + host memory
      traffic), a NCCL/GPUDirect ring sustains ~12 GB/s end to end.
    * NVLink3: ~250 GB/s effective per GPU pair.
    """
    gpu = DeviceSpec(
        name="A100-40GB",
        gemm_rate=15.0e12,
        level3_rate=9.0e12,
        factor_rate=2.2e12,
        geqrf_rate=0.50e12,
        blas1_bandwidth=1.3e12,
        launch_overhead=8e-6,
        eff_half_flops=2.0e9,
        memory_bytes=40 * 1024**3,
    )
    cpu = DeviceSpec(
        name="EPYC-7402-12t",
        gemm_rate=0.32e12,
        level3_rate=0.30e12,
        factor_rate=0.12e12,
        geqrf_rate=0.10e12,
        blas1_bandwidth=40e9,
        launch_overhead=1e-6,
        eff_half_flops=5.0e7,
        memory_bytes=128 * 1024**3,
    )
    return MachineSpec(
        name="JUWELS-Booster",
        gpus_per_node=4,
        gpu=gpu,
        cpu=cpu,
        pcie=LinkSpec("PCIe-gen4", latency=10e-6, bandwidth=22e9),
        nvlink=LinkSpec("NVLink3", latency=3e-6, bandwidth=250e9),
        shm_mpi=LinkSpec("SHM-MPI", latency=2e-6, bandwidth=18e9),
        ib_mpi=LinkSpec("HDR200-MPI", latency=6e-6, bandwidth=9e9),
        ib_nccl=LinkSpec("HDR200-NCCL", latency=8e-6, bandwidth=12e9),
    )
