"""Host BLAS thread placement (``repro.runtime.blas``).

The rule under test: inside any numeric solve at most one BLAS pool has
more than one thread, total BLAS threads never exceed the usable cores,
and the caller gets back the counts it had — on success, on exception
and when scopes nest.  Placement must not move a modeled value.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
import time
import types

import numpy as np
import pytest

import repro.runtime.device
from repro import ChaseConfig, ChaseSolver, chase_serial
from repro.distributed import DistributedHermitian
from repro.runtime import (
    FaultError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    blas,
)
from repro.service import EigenService, JobState, SolveJob, scf_sequence
from tests.conftest import make_grid

POOLS = blas.pools()

needs_pool = pytest.mark.skipif(
    not POOLS, reason="discovery found no controllable BLAS pool here")
needs_two_pools = pytest.mark.skipif(
    len(POOLS) < 2,
    reason="one BLAS pool in this process (shared MKL/OpenBLAS build): "
           "the one-pool scope is a no-op by design")


def counts() -> list[int]:
    return [p.threads() for p in POOLS]


def assert_placed(seen: list[int]) -> None:
    """The one-pool rule, on the thread counts read inside a solve."""
    assert [n for p, n in zip(POOLS, seen) if not p.primary] \
        == [1] * (len(POOLS) - 1)
    assert sum(n > 1 for n in seen) <= 1
    assert sum(seen) - (len(POOLS) - 1) <= blas.usable_cores()


CFG = ChaseConfig(nev=10, nex=6, tol=1e-9, max_iter=40)


def _matrix(n: int = 96) -> np.ndarray:
    A = np.random.default_rng(4242).standard_normal((n, n))
    return (A + A.T) / 2


@pytest.fixture
def trsm_counts(monkeypatch) -> list[list[int]]:
    """Thread counts of every pool at each ``trsm_numeric`` call."""
    seen: list[list[int]] = []
    inner = repro.runtime.device.trsm_numeric

    def recording(X, R):
        seen.append(counts())
        return inner(X, R)

    monkeypatch.setattr(repro.runtime.device, "trsm_numeric", recording)
    return seen


# ------------------------------------------------------------------ discovery
class TestDiscovery:
    @pytest.mark.skipif(
        not all(os.path.isdir(os.path.join(
            os.path.dirname(importlib.util.find_spec(m).origin), "..",
            f"{m}.libs")) for m in ("numpy", "scipy")),
        reason="numpy and scipy are not both pip wheels with a vendored BLAS")
    def test_finds_both_vendored_openblas_builds(self):
        dirs = {os.path.basename(os.path.dirname(p.filepath))
                for p in blas.discover()}
        assert {"numpy.libs", "scipy.libs"} <= dirs

    @needs_pool
    def test_exactly_one_primary_and_it_is_numpys(self):
        found = blas.discover()
        assert sum(p.primary for p in found) == 1
        numpy_file = blas._numpy_blas_file()
        if numpy_file is not None:
            primary = next(p for p in found if p.primary)
            assert os.path.realpath(primary.filepath) == numpy_file

    @needs_pool
    def test_handles_work(self):
        for pool in blas.discover():
            before = pool.threads()
            assert before >= 1
            pool.set_threads(1)
            try:
                assert pool.threads() == 1
            finally:
                pool.set_threads(before)
            assert pool.threads() == before

    def test_threadpoolctl_is_preferred_when_importable(self, monkeypatch):
        class Controller:
            def __init__(self, user_api, filepath):
                self.user_api, self.filepath = user_api, filepath
                self.internal_api, self.version = "fakeblas", "1.2"
                self.num_threads = 8

            def set_num_threads(self, n):
                self.num_threads = n

        libs = [Controller("blas", "/x/liba.so"), Controller("openmp", "/x/o.so"),
                Controller("blas", "/x/libb.so")]
        fake = types.ModuleType("threadpoolctl")
        fake.ThreadpoolController = lambda: types.SimpleNamespace(
            lib_controllers=libs)
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        found = blas.discover()
        assert [p.filepath for p in found] == ["/x/liba.so", "/x/libb.so"]
        assert [p.primary for p in found] == [True, False]  # first, by default
        assert found[1].version == "fakeblas 1.2"
        found[1].set_threads(3)
        assert libs[2].num_threads == 3 and found[1].threads() == 3

    def test_describe_has_one_record_per_pool(self):
        records = blas.describe()
        assert len(records) == len(POOLS)
        for rec, pool in zip(records, POOLS):
            assert rec["file"] == os.path.basename(pool.filepath)
            assert rec["threads"] == pool.threads()
            assert rec["role"] == ("primary" if pool.primary else "pinned")
        if len(POOLS) > 1:
            assert_placed([r["solve_threads"] for r in records])
        assert "\n" not in blas.describe_line()


# ---------------------------------------------------------------------- scope
@needs_two_pools
class TestOnePoolScope:
    def test_exactly_one_multithreaded_pool_inside(self):
        before = counts()
        with blas.one_pool_scope():
            inside = counts()
        assert_placed(inside)
        primary = next(n for p, n in zip(POOLS, inside) if p.primary)
        assert primary == min(blas.usable_cores(),
                              next(n for p, n in zip(POOLS, before) if p.primary))
        if blas.usable_cores() > 1 and primary > 1:
            assert sum(n > 1 for n in inside) == 1
        assert counts() == before

    def test_restores_on_exception(self):
        before = counts()
        with pytest.raises(RuntimeError, match="boom"):
            with blas.one_pool_scope():
                raise RuntimeError("boom")
        assert counts() == before

    def test_nested_scopes_restore_once_at_the_outermost_exit(self):
        before = counts()
        with blas.one_pool_scope():
            placed = counts()
            with blas.one_pool_scope():
                assert counts() == placed
                with blas.single_thread_scope():
                    assert counts() == [1] * len(POOLS)
                assert counts() == placed
            assert counts() == placed
        assert counts() == before

    def test_caps_the_primary_at_the_usable_cores(self):
        primary = next(p for p in POOLS if p.primary)
        before = primary.threads()
        primary.set_threads(blas.usable_cores() + 3)
        try:
            with blas.one_pool_scope():
                assert primary.threads() == blas.usable_cores()
            assert primary.threads() == blas.usable_cores() + 3
        finally:
            primary.set_threads(before)

    def test_concurrent_entrants_share_one_layout(self):
        """More threads than cores entering and leaving at random: every
        read inside a scope sees the placed layout (nobody restores under
        a peer), and the last one out restores the caller's counts."""
        before = counts()
        with blas.one_pool_scope():
            placed = counts()
        bad: list = []
        deadline = time.monotonic() + 2.0

        def worker():
            while time.monotonic() < deadline and not bad:
                with blas.one_pool_scope():
                    seen = counts()
                    if seen != placed:
                        bad.append(seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(2 * blas.usable_cores() + 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad
        assert counts() == before


# ---------------------------------------------------------------- solve level
@needs_two_pools
class TestSolveBoundaries:
    def test_chase_solver(self, trsm_counts):
        before = counts()
        grid = make_grid(4)
        Hd = DistributedHermitian.from_dense(grid, _matrix())
        res = ChaseSolver(grid, Hd, CFG).solve(rng=np.random.default_rng(99))
        assert res.converged and trsm_counts
        for seen in trsm_counts:
            assert_placed(seen)
        assert counts() == before

    def test_chase_serial(self):
        """The serial driver calls SciPy's TRSM directly, so the counts
        are read from a matrix-free operator's ``H @ X`` instead."""
        H = _matrix()
        seen: list[list[int]] = []

        class Recording:
            shape, dtype = H.shape, H.dtype

            def __matmul__(self, X):
                seen.append(counts())
                return H @ X

        before = counts()
        res = chase_serial(Recording(), CFG, rng=np.random.default_rng(99))
        assert res.converged and seen
        for s in seen:
            assert_placed(s)
        assert counts() == before

    def test_eigen_service_job(self, trsm_counts):
        before = counts()
        svc = EigenService(total_ranks=4, n_shards=1, tune="off")
        svc.submit(SolveJob(H=scf_sequence(120, 1, seed=3)[0], nev=12, nex=6,
                            seed=7))
        (rec,) = svc.run()
        assert rec.state is JobState.DONE and rec.converged and trsm_counts
        for seen in trsm_counts:
            assert_placed(seen)
        assert counts() == before

    def test_counts_are_back_after_a_typed_fault_escapes(self, trsm_counts):
        before = counts()
        plan = FaultPlan(events=tuple(
            FaultEvent(kind=FaultKind.KERNEL_CRASH, rank=0, iteration=i)
            for i in range(1, 6)))
        grid = make_grid(4)
        Hd = DistributedHermitian.from_dense(grid, _matrix())
        solver = ChaseSolver(grid, Hd, CFG, faults=plan, max_recoveries=2)
        with pytest.raises(FaultError):
            solver.solve(rng=np.random.default_rng(99))
        assert trsm_counts, "the fault must strike inside the numeric solve"
        assert counts() == before


@needs_pool
def test_placement_moves_no_modeled_value():
    """Same solve, placed vs. every pool at one thread: modeled values
    bit for bit, floats to the solve tolerance."""
    H = _matrix(120)

    def solve():
        grid = make_grid(4)
        Hd = DistributedHermitian.from_dense(grid, H)
        res = ChaseSolver(grid, Hd, CFG).solve(
            rng=np.random.default_rng(5), return_vectors=True)
        return res, grid.comm_stats()

    placed, placed_stats = solve()
    with blas.single_thread_scope():
        serial, serial_stats = solve()
    assert placed.makespan == serial.makespan
    assert placed_stats == serial_stats
    assert placed.iterations == serial.iterations
    assert placed.matvecs == serial.matvecs
    scale = max(abs(placed.bounds.mu1), abs(placed.bounds.b_sup))
    np.testing.assert_allclose(placed.eigenvalues, serial.eigenvalues,
                               rtol=0, atol=CFG.tol * scale)
    # eigenvectors agree up to sign: compare the projectors' action
    overlap = np.abs(np.sum(placed.eigenvectors.conj() * serial.eigenvectors,
                            axis=0))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-6)
