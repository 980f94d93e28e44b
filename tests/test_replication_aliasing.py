"""Replication-group execution: aliasing semantics of numeric multivectors.

The numeric-dedup layer stores one shared ndarray per replication group
(layout "C": fixed grid row i, all columns j; layout "B": fixed j, all
i) and every numeric kernel computes each unique block once, aliasing
the result into the replica slots.  These tests pin down:

* constructors produce aliased multivectors iff the cluster config
  enables dedup;
* HEMM / filter / QR outputs keep replicas memory-shared;
* writes (``write_into`` / ``permute_columns`` / ``copy_cols_from``)
  reach every replica but never leak into other replication groups;
* numeric results are identical to the seed (dedup-off) execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chase import ChaseSolver
from repro.core.config import ChaseConfig
from repro.core.filter import chebyshev_filter, mv_axpby
from repro.core.qr import QRReport, cholesky_qr, shifted_cholesky_qr2
from repro.distributed import (
    BlockMap1D,
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.runtime import (
    CommBackend, ExecutionConfig, Grid2D, VirtualCluster)


def make_grid(n: int = 4, backend: CommBackend = CommBackend.NCCL, p=None,
              q=None, dedup: bool = True):
    config = ExecutionConfig(numeric_dedup=dedup)
    return Grid2D(VirtualCluster(n, backend=backend, config=config), p, q)


def hermitian(rng, N, dtype=np.float64):
    A = rng.standard_normal((N, N))
    if np.dtype(dtype).kind == "c":
        A = A + 1j * rng.standard_normal((N, N))
    return ((A + A.conj().T) / 2).astype(dtype)


def row_map(grid, N: int = 40) -> BlockMap1D:
    """A layout-"C" index map (rows split over grid rows)."""
    return BlockMap1D(N, grid.p)


def col_map(grid, N: int = 40) -> BlockMap1D:
    """A layout-"B" index map (rows split over grid columns)."""
    return BlockMap1D(N, grid.q)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["C", "B"])
def test_zeros_aliased_iff_enabled(layout):
    grid = make_grid(6, p=2, q=3)
    imap = row_map(grid) if layout == "C" else col_map(grid)
    V = DistributedMultiVector.zeros(grid, imap, layout, 5, np.float64, False)
    assert V.aliased and V.replicas_share_memory()
    for key in V.blocks:
        assert V.blocks[key] is V.blocks[V.rep_root(*key)]
    seed_grid = make_grid(6, p=2, q=3, dedup=False)
    W = DistributedMultiVector.zeros(
        seed_grid, imap, layout, 5, np.float64, False)
    assert not W.aliased
    reps = [k for k in W.blocks if k != W.rep_root(*k)]
    assert all(W.blocks[k] is not W.blocks[W.rep_root(*k)] for k in reps)
    # phantom buffers never alias
    P = DistributedMultiVector.zeros(grid, imap, layout, 5, np.float64, True)
    assert not P.aliased


@pytest.mark.parametrize("layout", ["C", "B"])
def test_from_global_aliased_and_consistent(layout):
    rng = np.random.default_rng(0)
    grid = make_grid(6, p=3, q=2)
    imap = row_map(grid) if layout == "C" else col_map(grid)
    V = rng.standard_normal((imap.N, 4))
    mv = DistributedMultiVector.from_global(grid, V, imap, layout)
    assert mv.aliased and mv.replicas_share_memory()
    np.testing.assert_array_equal(mv.gather(0), V)
    mv0 = DistributedMultiVector.from_global(
        make_grid(6, p=3, q=2, dedup=False), V, imap, layout)
    assert not mv0.aliased
    for key in mv.blocks:
        np.testing.assert_array_equal(mv.blocks[key], mv0.blocks[key])


# ---------------------------------------------------------------------------
# kernel outputs stay aliased and match the seed execution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hemm_output_aliased_and_bit_identical(dtype):
    rng = np.random.default_rng(1)
    N, ne = 48, 6
    H = hermitian(rng, N, dtype)
    V = rng.standard_normal((N, ne)).astype(dtype)

    def run(dedup=True):
        grid = make_grid(4, dedup=dedup)
        Hd = DistributedHermitian.from_dense(grid, H)
        C = DistributedMultiVector.from_global(grid, V, Hd.rowmap, "C")
        B = DistributedHemm(Hd).apply(C, slice(0, ne))
        return B

    B1 = run()
    assert B1.aliased and B1.replicas_share_memory()
    assert B1.replication_error() == 0.0
    B0 = run(dedup=False)
    assert not B0.aliased
    np.testing.assert_array_equal(B1.gather(0), B0.gather(0))
    np.testing.assert_allclose(B1.gather(0), H @ V, rtol=0, atol=1e-12 * N)


def test_axpby_and_filter_keep_aliasing():
    rng = np.random.default_rng(2)
    N, ne = 40, 6
    H = hermitian(rng, N)
    lam = np.linalg.eigvalsh(H)
    mu1, mu_ne, b_sup = lam[0], lam[ne - 1], lam[-1] + 0.1
    c, e = (b_sup + mu_ne) / 2, (b_sup - mu_ne) / 2
    V = rng.standard_normal((N, ne))
    degrees = np.full(ne, 4, dtype=np.int64)

    def run(dedup=True):
        grid = make_grid(4, dedup=dedup)
        Hd = DistributedHermitian.from_dense(grid, H)
        hemm = DistributedHemm(Hd)
        C = DistributedMultiVector.from_global(grid, V, Hd.rowmap, "C")
        Z = mv_axpby(2.0, C, -0.5, C)
        assert Z.aliased == C.aliased
        chebyshev_filter(hemm, C, 0, degrees, c, e, mu1)
        return C

    C1 = run()
    assert C1.aliased and C1.replicas_share_memory()
    C0 = run(dedup=False)
    assert C0.replication_error() == 0.0
    np.testing.assert_array_equal(C1.gather(0), C0.gather(0))


@pytest.mark.parametrize("variant", ["cholqr", "shifted"])
def test_qr_keeps_aliasing_and_matches_seed(variant):
    rng = np.random.default_rng(3)
    N, ne = 48, 6
    V = np.linalg.qr(rng.standard_normal((N, ne)))[0] @ np.diag(
        np.logspace(0, 3, ne)
    )

    def run(dedup=True):
        grid = make_grid(4, dedup=dedup)
        Hd = DistributedHermitian.from_dense(grid, hermitian(rng, N))
        C = DistributedMultiVector.from_global(grid, V, Hd.rowmap, "C")
        report = QRReport()
        if variant == "cholqr":
            assert cholesky_qr(grid, C, 2, report) == 0
        else:
            shifted_cholesky_qr2(grid, C, report)
        return C

    C1 = run()
    assert C1.aliased and C1.replicas_share_memory()
    Q = C1.gather(0)
    np.testing.assert_allclose(Q.T @ Q, np.eye(ne), atol=1e-10)
    C0 = run(dedup=False)
    np.testing.assert_array_equal(Q, C0.gather(0))


# ---------------------------------------------------------------------------
# write isolation: replicas see writes, other groups never do
# ---------------------------------------------------------------------------


def test_write_into_reaches_replicas_not_other_groups():
    rng = np.random.default_rng(4)
    grid = make_grid(4)
    imap = row_map(grid)
    N = imap.N
    src = DistributedMultiVector.from_global(
        grid, rng.standard_normal((N, 3)), imap, "C"
    )
    dst = DistributedMultiVector.zeros(grid, imap, "C", 8, np.float64, False)
    before_other = {k: dst.blocks[k].copy() for k in dst.blocks}
    src.write_into(dst, 2)
    assert dst.replicas_share_memory()
    for i in range(grid.p):
        root = dst.blocks[(i, 0)]
        np.testing.assert_array_equal(root[:, 2:5], src.blocks[(i, 0)])
        # untouched columns keep their zeros
        np.testing.assert_array_equal(root[:, :2], before_other[(i, 0)][:, :2])
        np.testing.assert_array_equal(root[:, 5:], before_other[(i, 0)][:, 5:])
    # writing into group i=0 must not have touched group i=1
    assert dst.blocks[(0, 0)] is dst.blocks[(0, 1)]
    assert dst.blocks[(0, 0)] is not dst.blocks[(1, 0)]


def test_direct_block_write_isolated_to_group():
    grid = make_grid(4)
    imap = row_map(grid)
    mv = DistributedMultiVector.zeros(grid, imap, "C", 4, np.float64, False)
    mv.blocks[(0, 0)][...] = 7.0
    # the replica (same group) sees the write ...
    np.testing.assert_array_equal(mv.blocks[(0, 1)], mv.blocks[(0, 0)])
    # ... the other replication group does not
    assert float(np.abs(mv.blocks[(1, 0)]).max()) == 0.0
    assert float(np.abs(mv.blocks[(1, 1)]).max()) == 0.0


def test_permute_columns_realiases():
    rng = np.random.default_rng(5)
    grid = make_grid(4)
    imap = row_map(grid)
    V = rng.standard_normal((imap.N, 5))
    mv = DistributedMultiVector.from_global(grid, V, imap, "C")
    perm = np.array([4, 2, 0, 1, 3])
    mv.permute_columns(perm)
    assert mv.aliased and mv.replicas_share_memory()
    np.testing.assert_array_equal(mv.gather(0), V[:, perm])
    mv0 = DistributedMultiVector.from_global(
        make_grid(4, dedup=False), V, imap, "C")
    mv0.permute_columns(perm)
    np.testing.assert_array_equal(mv.gather(0), mv0.gather(0))


def test_copy_cols_from_preserves_aliasing():
    rng = np.random.default_rng(6)
    grid = make_grid(4)
    imap = row_map(grid)
    A = DistributedMultiVector.from_global(
        grid, rng.standard_normal((imap.N, 6)), imap, "C"
    )
    B = DistributedMultiVector.zeros(grid, imap, "C", 6, np.float64, False)
    B.copy_cols_from(A, 1, 4)
    assert B.replicas_share_memory()
    np.testing.assert_array_equal(B.gather(0)[:, 1:4], A.gather(0)[:, 1:4])
    assert float(np.abs(B.gather(0)[:, :1]).max()) == 0.0
    assert float(np.abs(B.gather(0)[:, 4:]).max()) == 0.0


def test_view_cols_shares_one_view_per_group():
    rng = np.random.default_rng(7)
    grid = make_grid(4)
    imap = row_map(grid)
    mv = DistributedMultiVector.from_global(
        grid, rng.standard_normal((imap.N, 6)), imap, "C"
    )
    V = mv.view_cols(1, 4)
    assert V.aliased and V.replicas_share_memory()
    assert V.blocks[(0, 0)] is V.blocks[(0, 1)]
    # writes through the view reach the parent's whole replication group
    V.blocks[(0, 0)][...] = 3.0
    np.testing.assert_array_equal(mv.blocks[(0, 1)][:, 1:4], 3.0 * np.ones_like(V.blocks[(0, 0)]))
    # ... but not the other group
    assert not np.any(mv.blocks[(1, 0)][:, 1:4] == 3.0)


# ---------------------------------------------------------------------------
# end-to-end: numeric solve matches the seed execution exactly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["new", "lms"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_solve_matches_seed_exactly(scheme, dtype):
    rng = np.random.default_rng(8)
    N, nev, nex = 120, 15, 10
    H = hermitian(rng, N, dtype)

    def run(dedup=True):
        grid = make_grid(4, dedup=dedup)
        Hd = DistributedHermitian.from_dense(grid, H)
        solver = ChaseSolver(
            grid, Hd, ChaseConfig(nev=nev, nex=nex), scheme=scheme
        )
        return solver.solve(rng=np.random.default_rng(99), return_vectors=True)

    r1 = run()
    r0 = run(dedup=False)
    assert r1.converged and r0.converged
    np.testing.assert_array_equal(r1.eigenvalues, r0.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r0.eigenvectors)
    lam = np.linalg.eigvalsh(H)[:nev]
    np.testing.assert_allclose(r1.eigenvalues, lam, rtol=0, atol=1e-8)
