"""Unit tests for the performance model (machine, kernels, collectives,
memory)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.perfmodel import (
    KernelTimeModel,
    MpiModel,
    NcclModel,
    chase_lms_bytes,
    chase_new_scheme_bytes,
    fits_on_device,
    gemm_flops,
    geqrf_flops,
    heevd_flops,
    juwels_booster,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.perfmodel.kernels import complex_factor


class TestFlopCounts:
    def test_gemm_real_vs_complex(self):
        assert gemm_flops(10, 20, 30) == 2 * 10 * 20 * 30
        assert gemm_flops(10, 20, 30, np.complex128) == 8 * 10 * 20 * 30

    def test_complex_factor(self):
        assert complex_factor(np.float64) == 1
        assert complex_factor(np.complex64) == 4

    def test_syrk_half_of_gemm(self):
        # SYRK does roughly half the work of the equivalent GEMM
        n, k = 100, 1000
        assert syrk_flops(n, k) == pytest.approx(gemm_flops(n, n, k) / 2, rel=0.05)

    def test_potrf_cubic(self):
        assert potrf_flops(30) == pytest.approx(30**3 / 3, rel=0.1)

    def test_trsm(self):
        assert trsm_flops(100, 10) == 100 * 10 * 10

    def test_geqrf_tall_skinny(self):
        m, n = 10000, 100
        assert geqrf_flops(m, n) == pytest.approx(2 * m * n * n, rel=0.01)

    def test_heevd_scales_cubically(self):
        assert heevd_flops(200) / heevd_flops(100) == pytest.approx(8, rel=0.01)


class TestKernelTimeModel:
    def setup_method(self):
        self.model = KernelTimeModel(juwels_booster().gpu)

    def test_monotone_in_flops(self):
        t = [self.model.time("gemm", f) for f in [1e6, 1e9, 1e12, 1e14]]
        assert t == sorted(t)

    def test_large_gemm_near_effective_rate(self):
        gpu = juwels_booster().gpu
        f = 1e15
        assert self.model.time("gemm", f) == pytest.approx(f / gpu.gemm_rate, rel=0.02)

    def test_small_kernel_dominated_by_overhead(self):
        gpu = juwels_booster().gpu
        assert self.model.time("gemm", 10.0) >= gpu.launch_overhead

    def test_factor_kernels_slower_than_gemm(self):
        f = 1e12
        assert self.model.time("potrf", f) > self.model.time("gemm", f)

    def test_blas1_bandwidth_bound(self):
        gpu = juwels_booster().gpu
        t = self.model.time("blas1", 0.0, bytes_touched=1e9)
        assert t == pytest.approx(gpu.launch_overhead + 1e9 / gpu.blas1_bandwidth)

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            self.model.time("gemm", -1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            self.model.time("fft", 1e9)


class TestCollectiveModels:
    def setup_method(self):
        m = juwels_booster()
        self.mpi = MpiModel(m)
        self.nccl = NcclModel(m)

    def test_single_rank_cheap(self):
        assert self.mpi.allreduce(1e9, 1, True) < 1e-3
        assert self.nccl.allreduce(1e9, 1, True) < 1e-3

    def test_allreduce_monotone_in_bytes(self):
        t = [self.mpi.allreduce(n, 8, True) for n in [1e3, 1e6, 1e9]]
        assert t == sorted(t)

    def test_power_of_two_advantage(self):
        """The paper's Fig. 3a dips: non-power-of-two communicators pay an
        extra round in MPI allreduce."""
        n = 1e8
        t8 = self.mpi.allreduce(n, 8, True)
        t9 = self.mpi.allreduce(n, 9, True)
        t16 = self.mpi.allreduce(n, 16, True)
        assert t9 > t8
        assert t9 > t16 * 0.9  # 9 ranks cost about as much as 16

    def test_nccl_faster_than_mpi_large_messages(self):
        n = 7.2e8  # the B-buffer allreduce payload at N=30k
        assert self.nccl.allreduce(n, 8, True) < self.mpi.allreduce(n, 8, True)

    def test_nccl_intranode_uses_nvlink(self):
        n = 1e8
        assert self.nccl.allreduce(n, 4, False) < self.nccl.allreduce(n, 4, True) / 3

    def test_bcast_monotone_in_ranks(self):
        t = [self.mpi.bcast(1e7, p, True) for p in [2, 4, 8, 32]]
        assert t == sorted(t)

    def test_allgather_scales_with_ranks(self):
        assert self.nccl.allgather(1e6, 16, True) > self.nccl.allgather(1e6, 2, True)

    @given(p=st.integers(2, 64), n=st.floats(1e3, 1e9))
    def test_times_positive(self, p, n):
        for model in (self.mpi, self.nccl):
            assert model.allreduce(n, p, True) > 0
            assert model.bcast(n, p, False) > 0


class TestMemoryModel:
    def test_eq2_components(self):
        # N^2/(pq) + 2 N ne / p + 2 N ne / q + ne^2 elements, x8 bytes
        b = chase_new_scheme_bytes(1000, 100, 2, 5, np.float64)
        elems = 1000**2 / 10 + 2 * 1000 * 100 / 2 + 2 * 1000 * 100 / 5 + 100**2
        assert b == int(np.ceil(elems * 8))

    def test_lms_redundant_buffers_dominate(self):
        # the redundant N x ne buffers + QR workspace are charged fully
        # per device, regardless of the node count
        b = chase_lms_bytes(100_000, 3000, nodes=100, gpus_per_node=4, dtype=np.float64)
        assert b >= 3 * 100_000 * 3000 * 8

    def test_paper_oom_boundary(self):
        """LMS weak scaling stops at 144 nodes (N=360k): the next square
        point (256 nodes, N=480k) exceeds the A100's 40 GB."""
        gpu = juwels_booster().gpu
        ok = chase_lms_bytes(360_000, 3000, 144, 4, np.float64)
        too_big = chase_lms_bytes(480_000, 3000, 256, 4, np.float64)
        assert fits_on_device(ok, gpu.memory_bytes)
        assert not fits_on_device(too_big, gpu.memory_bytes)

    def test_new_scheme_fits_at_900_nodes(self):
        gpu = juwels_booster().gpu
        b = chase_new_scheme_bytes(900_000, 3000, 60, 60, np.float64)
        assert fits_on_device(b, gpu.memory_bytes)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chase_new_scheme_bytes(10, 1, 0, 1)
        with pytest.raises(ValueError):
            chase_lms_bytes(10, 1, 0)
        with pytest.raises(ValueError):
            fits_on_device(1, 2, headroom=0.0)


class TestMachineSpecs:
    def test_juwels_shape(self):
        m = juwels_booster()
        assert m.gpus_per_node == 4
        assert m.gpu.memory_bytes == 40 * 1024**3
        assert m.nvlink.bandwidth > m.ib_nccl.bandwidth > m.ib_mpi.bandwidth

    def test_link_time(self):
        m = juwels_booster()
        assert m.pcie.time(22e9) == pytest.approx(1.0, rel=0.01)

    def test_with_gpu_override(self):
        m = juwels_booster().with_gpu(gemm_rate=1.0)
        assert m.gpu.gemm_rate == 1.0
