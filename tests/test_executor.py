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
    hemm_fusion,
    numeric_dedup,
)
from repro.runtime import blas, executor
from tests.conftest import make_grid


class TestExecutorPrimitives:
    def test_run_kernels_preserves_order(self):
        with executor.kernel_worker_scope(4):
            got = executor.run_kernels([lambda k=k: k * k for k in range(20)])
        assert got == [k * k for k in range(20)]

    def test_run_kernels_serial_when_one_worker(self):
        with executor.kernel_worker_scope(1):
            got = executor.run_kernels([lambda k=k: k for k in range(5)])
        assert got == list(range(5))

    def test_run_kernels_empty(self):
        assert executor.run_kernels([]) == []

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("kernel failed")

        for workers in (1, 3):
            with executor.kernel_worker_scope(workers):
                with pytest.raises(RuntimeError, match="kernel failed"):
                    executor.run_kernels([lambda: 1, boom, lambda: 2])

    def test_scope_restores_previous_count(self):
        before = executor.kernel_workers()
        with executor.kernel_worker_scope(7):
            assert executor.kernel_workers() == 7
            with executor.kernel_worker_scope(2):
                assert executor.kernel_workers() == 2
            assert executor.kernel_workers() == 7
        assert executor.kernel_workers() == before

    def test_set_kernel_workers_floors_at_one(self):
        prev = executor.set_kernel_workers(0)
        try:
            assert executor.kernel_workers() == 1
        finally:
            executor.set_kernel_workers(prev)

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
        with executor.kernel_worker_scope(3):
            got = executor.run_kernels([seen] * 6)
        assert got == [[1] * len(pools)] * 6
        assert seen() == before


def _setup_hemm(rng, n=48, ne=7, p=2, q=2):
    A = rng.standard_normal((n, n))
    Hd = 0.5 * (A + A.T)
    V = rng.standard_normal((n, ne))
    g = make_grid(p * q, p=p, q=q)
    H = DistributedHermitian.from_dense(g, Hd)
    C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
    return g, DistributedHemm(H), C


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("fused", [False, True])
    def test_hemm_applies(self, fused):
        results = []
        for workers in (1, 2, 4):
            rng = np.random.default_rng(31)
            with numeric_dedup(True), hemm_fusion(fused), \
                    executor.kernel_worker_scope(workers):
                g, hemm, C = _setup_hemm(rng)
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
            with numeric_dedup(True), executor.kernel_worker_scope(workers):
                g = make_grid(4, p=2, q=2)
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
            with numeric_dedup(True), hemm_fusion(True), \
                    executor.kernel_worker_scope(workers):
                g = make_grid(4, p=2, q=2)
                H = DistributedHermitian.from_dense(g, Hd)
                solver = ChaseSolver(g, H, ChaseConfig(nev=15, nex=8))
                res = solver.solve(rng=np.random.default_rng(3))
                results.append((res.eigenvalues, res.makespan, g.comm_stats()))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]
