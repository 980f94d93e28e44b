"""The parallel kernel executor (``repro.runtime.executor``).

Determinism is the contract: because all modeled charges are issued on
the main thread before dispatch and every closure owns disjoint output
storage, results — numeric bits, makespans, CommStats — must be
independent of the worker count, including 1 (the serial seed path).
"""

import numpy as np
import pytest

from repro.core.chase import ChaseConfig, ChaseSolver
from repro.core.qr import QRReport, cholesky_qr
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.runtime import ExecutionConfig, blas, executor
from tests.conftest import make_grid


class TestExecutorPrimitives:
    def test_run_kernels_preserves_order(self):
        got = executor.run_kernels(
            [lambda k=k: k * k for k in range(20)], workers=4)
        assert got == [k * k for k in range(20)]

    def test_run_kernels_serial_when_one_worker(self):
        got = executor.run_kernels([lambda k=k: k for k in range(5)])
        assert got == list(range(5))

    def test_run_kernels_empty(self):
        assert executor.run_kernels([]) == []

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("kernel failed")

        for workers in (1, 3):
            with pytest.raises(RuntimeError, match="kernel failed"):
                executor.run_kernels([lambda: 1, boom, lambda: 2],
                                     workers=workers)

    def test_kernel_workers_below_one_rejected(self):
        for bad in (0, -2, 1.5, True, "2"):
            with pytest.raises(ValueError, match="kernel_workers"):
                ExecutionConfig(kernel_workers=bad)

    def test_cluster_run_kernels_uses_its_config(self):
        """The cluster forwards its worker count: a batch on a
        3-worker cluster runs under the BLAS guard, one on the default
        cluster does not."""
        pools = blas.pools()
        if not pools:
            pytest.skip("discovery found no controllable BLAS pool")
        seen = lambda: [p.threads() for p in pools]  # noqa: E731
        before = seen()
        wide = make_grid(4, config=ExecutionConfig(kernel_workers=3)).cluster
        assert wide.run_kernels([seen] * 4) == [[1] * len(pools)] * 4
        assert make_grid(4).cluster.run_kernels([seen] * 4) == [before] * 4

    def test_blas_thread_guard_limits_every_pool(self):
        pools = blas.pools()
        if not pools:
            pytest.skip("discovery found no controllable BLAS pool in this "
                        "process (no threadpoolctl, no OpenBLAS with "
                        "set/get_num_threads handles): nothing to read back")
        before = [p.threads() for p in pools]
        with executor.blas_thread_guard():
            assert [p.threads() for p in pools] == [1] * len(pools)
            with executor.blas_thread_guard():
                assert [p.threads() for p in pools] == [1] * len(pools)
                assert (np.ones((8, 8)) @ np.ones((8, 8)))[0, 0] == 8.0
            assert [p.threads() for p in pools] == [1] * len(pools)
        assert [p.threads() for p in pools] == before

    def test_blas_thread_guard_wraps_worker_batches(self):
        pools = blas.pools()
        if not pools:
            pytest.skip("discovery found no controllable BLAS pool")
        before = [p.threads() for p in pools]
        seen = lambda: [p.threads() for p in pools]  # noqa: E731
        got = executor.run_kernels([seen] * 6, workers=3)
        assert got == [[1] * len(pools)] * 6
        assert seen() == before


def _setup_hemm(rng, config, n=48, ne=7, p=2, q=2):
    A = rng.standard_normal((n, n))
    Hd = 0.5 * (A + A.T)
    V = rng.standard_normal((n, ne))
    g = make_grid(p * q, p=p, q=q, config=config)
    H = DistributedHermitian.from_dense(g, Hd)
    C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
    return g, DistributedHemm(H), C


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("fused", [False, True])
    def test_hemm_applies(self, fused):
        results = []
        for workers in (1, 2, 4):
            rng = np.random.default_rng(31)
            g, hemm, C = _setup_hemm(rng, ExecutionConfig(
                hemm_fusion=fused, kernel_workers=workers))
            B = hemm.apply(C, gamma=0.4, alpha=1.3)
            C2 = hemm.apply(B, gamma=0.4, alpha=1.3)
            results.append(
                (B.gather(), C2.gather(),
                 max(r.clock.now for r in g.ranks), g.comm_stats())
            )
        for other in results[1:]:
            assert np.array_equal(results[0][0], other[0])
            assert np.array_equal(results[0][1], other[1])
            assert results[0][2] == other[2]
            assert results[0][3] == other[3]

    def test_cholesky_qr(self):
        results = []
        for workers in (1, 3):
            rng = np.random.default_rng(77)
            g = make_grid(4, p=2, q=2,
                          config=ExecutionConfig(kernel_workers=workers))
            A = rng.standard_normal((50, 50))
            H = DistributedHermitian.from_dense(g, 0.5 * (A + A.T))
            V = rng.standard_normal((50, 6))
            C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
            report = QRReport()
            info = cholesky_qr(g, C, 2, report)
            assert info == 0
            results.append(
                (C.gather(), max(r.clock.now for r in g.ranks),
                 g.comm_stats())
            )
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]

    def test_full_solve(self):
        """End to end: eigenvalues, makespan and CommStats independent
        of the worker count with the fused tier on."""
        results = []
        for workers in (1, 2):
            rng = np.random.default_rng(5)
            A = rng.standard_normal((150, 150))
            Hd = 0.5 * (A + A.T)
            g = make_grid(4, p=2, q=2, config=ExecutionConfig(
                hemm_fusion=True, kernel_workers=workers))
            H = DistributedHermitian.from_dense(g, Hd)
            solver = ChaseSolver(g, H, ChaseConfig(nev=15, nex=8))
            res = solver.solve(rng=np.random.default_rng(3))
            results.append((res.eigenvalues, res.makespan, g.comm_stats()))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]
