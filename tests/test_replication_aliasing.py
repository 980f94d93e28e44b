"""One array per layout: every block is a view of it (DESIGN.md §5b).

A numeric multivector holds the global ``N x ne`` matrix as one ndarray
(its parts stacked in index-map order), and ``H`` the global ``N x N``
one; every block is a row-range (for ``H``, row- and column-range) view
of that array, built once, and every replica of a part is that one view
object.  These tests pin down:

* constructors copy their input once and tile it; phantom ``H`` holds
  no array;
* HEMM outputs (both directions, per block and fused, full and narrow)
  are one array, and the HEMM's forms of ``H`` are whole-array views;
* in-place operations (``permute_columns``, CholeskyQR, HHQR,
  ``write_into``, ``copy_cols_from``) keep the array and its views;
* every multivector and ``H`` that whole solves build — both schemes,
  real and complex, per block and fused, through HHQR, a rank-death
  shrink and a checkpoint restore — is one array with its views.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import hhqr_1d
from repro.core.chase import ChaseSolver
from repro.core.config import ChaseConfig
from repro.core.filter import _axpby, chebyshev_filter
from repro.core.qr import (
    QRReport, cholesky_qr, mixed_cholesky_qr2, shifted_cholesky_qr2)
from repro.distributed import (
    BlockMap1D,
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.runtime import (
    CommBackend, ExecutionConfig, FaultEvent, FaultKind, FaultPlan, Grid2D,
    VirtualCluster)
from tests.conftest import assert_one_array, assert_tiles


def make_grid(n: int = 4, p=None, q=None, fused: bool = False):
    config = ExecutionConfig(hemm_fusion=fused)
    return Grid2D(VirtualCluster(n, backend=CommBackend.NCCL, config=config),
                  p, q)


def hermitian(rng, N, dtype=np.float64):
    A = rng.standard_normal((N, N))
    if np.dtype(dtype).kind == "c":
        A = A + 1j * rng.standard_normal((N, N))
    return ((A + A.conj().T) / 2).astype(dtype)


def assert_h_tiles(Hd) -> None:
    assert Hd.data.shape == (Hd.N, Hd.N) and Hd.data.flags.c_contiguous
    assert_tiles(Hd.data, Hd.blocks, Hd.rowmap, Hd.colmap)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["C", "B"])
@pytest.mark.parametrize("N", [40, 41, 2], ids=["even", "ragged", "empty"])
def test_constructors_hold_one_array(layout, N):
    rng = np.random.default_rng(0)
    grid = make_grid(6, p=2, q=3)
    imap = BlockMap1D(N, grid.p if layout == "C" else grid.q)
    Z = DistributedMultiVector.zeros(grid, imap, layout, 5, np.float64)
    assert_one_array(Z)
    V = rng.standard_normal((N, 4))
    mv = DistributedMultiVector.from_global(grid, V, imap, layout)
    assert_one_array(mv)
    assert mv.data.flags.c_contiguous
    np.testing.assert_array_equal(mv.gather(), V)
    mv.data[...] = -1.0  # one copy of V
    assert not np.any(V == -1.0)


def test_rows_must_match_the_map():
    grid = make_grid(4)
    with pytest.raises(ValueError, match="rows"):
        DistributedMultiVector(grid, BlockMap1D(10, 2), "C", np.zeros((9, 2)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_from_dense_tiles_one_copy(dtype):
    rng = np.random.default_rng(1)
    H = hermitian(rng, 31, dtype)
    Hd = DistributedHermitian.from_dense(make_grid(6, p=2, q=3), H)
    assert_h_tiles(Hd)
    np.testing.assert_array_equal(Hd.data, H)
    assert not np.shares_memory(Hd.data, H)
    phantom = DistributedHermitian.phantom(make_grid(4), 100)
    assert phantom.data is None and phantom.blocks == {}


# ---------------------------------------------------------------------------
# kernel outputs and the HEMM's forms of H
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fused", [False, True], ids=["per-block", "fused"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hemm_outputs_and_forms_are_whole_arrays(dtype, fused):
    rng = np.random.default_rng(2)
    N, ne = 45, 6
    H = hermitian(rng, N, dtype)
    V = rng.standard_normal((N, ne)).astype(dtype)
    grid = make_grid(6, p=2, q=3, fused=fused)
    Hd = DistributedHermitian.from_dense(grid, H)
    hemm = DistributedHemm(Hd)
    C = DistributedMultiVector.from_global(grid, V, Hd.rowmap, "C")
    B = hemm.apply(C, gamma=0.3, alpha=1.5)
    C2 = hemm.apply(B, slice(1, 5), gamma=0.3)
    narrow = hemm.apply(DistributedMultiVector.from_global(
        grid, V.astype(np.complex64 if np.dtype(dtype).kind == "c"
                       else np.float32), Hd.rowmap, "C"))
    for out in (B, C2, narrow):
        assert_one_array(out)
    np.testing.assert_allclose(B.gather(), 1.5 * (H @ V - 0.3 * V),
                               atol=1e-12 * N)
    np.testing.assert_allclose(C2.gather(), H @ B.data[:, 1:5]
                               - 0.3 * B.data[:, 1:5], atol=1e-11 * N)
    # H's forms (itself, conjugate, narrow cast): whole N x N arrays,
    # each panel and block a view of one; the plain form is H's own
    assert hemm._forms[(False, False)][0] is Hd.data
    assert len(hemm._forms) == (4 if np.dtype(dtype).kind == "c" else 2)
    for A, panels, blocks in hemm._forms.values():
        assert A.shape == (N, N) and A.flags.c_contiguous
        assert_tiles(A, blocks, Hd.rowmap, Hd.colmap)
        assert_tiles(A, {(i, 0): P for i, P in enumerate(panels)},
                     Hd.rowmap, BlockMap1D(N, 1))


def test_axpby_and_filter_keep_the_one_array():
    rng = np.random.default_rng(3)
    N, ne = 40, 6
    H = hermitian(rng, N)
    lam = np.linalg.eigvalsh(H)
    mu1, mu_ne, b_sup = lam[0], lam[ne - 1], lam[-1] + 0.1
    c, e = (b_sup + mu_ne) / 2, (b_sup - mu_ne) / 2
    grid = make_grid(4)
    Hd = DistributedHermitian.from_dense(grid, H)
    C = DistributedMultiVector.from_global(
        grid, rng.standard_normal((N, ne)), Hd.rowmap, "C")
    assert_one_array(_axpby(2.0, C, -0.5, C))
    data, parts = C.data, list(C.parts)
    chebyshev_filter(DistributedHemm(Hd), C, 0, np.full(ne, 4), c, e, mu1)
    assert C.data is data and all(a is b for a, b in zip(C.parts, parts))
    assert_one_array(C)


@pytest.mark.parametrize("variant", ["cholqr", "shifted", "mixed", "hhqr"])
def test_permute_and_qr_keep_the_one_array(variant):
    """Locking's permutation and every QR write into the array in
    place: its parts stay the views they were."""
    rng = np.random.default_rng(4)
    N, ne = 48, 6
    V = np.linalg.qr(rng.standard_normal((N, ne)))[0] @ np.diag(
        np.logspace(0, 3, ne))
    grid = make_grid(6, p=3, q=2)
    C = DistributedMultiVector.from_global(grid, V, BlockMap1D(N, 3), "C")
    data, parts = C.data, list(C.parts)

    def unchanged():
        assert C.data is data and all(a is b for a, b in zip(C.parts, parts))
        assert_one_array(C)

    C.permute_columns(np.array([4, 2, 0, 1, 3, 5]))
    unchanged()
    np.testing.assert_array_equal(C.gather(), V[:, [4, 2, 0, 1, 3, 5]])
    report = QRReport()
    if variant == "cholqr":
        assert cholesky_qr(grid, C, 2, report) == 0
    elif variant == "shifted":
        shifted_cholesky_qr2(grid, C, report)
    elif variant == "mixed":
        assert mixed_cholesky_qr2(grid, C, report, np.float32) == 0
    else:
        hhqr_1d(grid, C)
    unchanged()
    Q = C.gather()
    np.testing.assert_allclose(Q.T @ Q, np.eye(ne), atol=1e-10)


# ---------------------------------------------------------------------------
# writes
# ---------------------------------------------------------------------------


def test_writes_reach_the_array_and_no_other_rows():
    rng = np.random.default_rng(5)
    grid = make_grid(4)
    imap = BlockMap1D(40, 2)
    src = DistributedMultiVector.from_global(
        grid, rng.standard_normal((40, 3)), imap, "C")
    dst = DistributedMultiVector.zeros(grid, imap, "C", 8, np.float64)
    src.write_into(dst, 2)
    np.testing.assert_array_equal(dst.data[:, 2:5], src.data)
    assert not np.any(dst.data[:, :2]) and not np.any(dst.data[:, 5:])
    other = DistributedMultiVector.zeros(grid, imap, "C", 8, np.float64)
    other.copy_cols_from(dst, 3, 4)
    np.testing.assert_array_equal(other.data[:, 3], dst.data[:, 3])
    assert not np.any(np.delete(other.data, 3, axis=1))
    # a column view writes through to the parent's rows of that part only
    view = dst.view_cols(1, 4)
    assert_one_array(view)
    view.local(0, 1)[...] = 3.0
    rows = slice(*imap.range_of(0))
    np.testing.assert_array_equal(dst.data[rows, 1:4], 3.0)
    assert not np.any(dst.data[slice(*imap.range_of(1)), 1:2])


# ---------------------------------------------------------------------------
# end to end: everything a solve builds is one array with its views
# ---------------------------------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Records every numeric multivector and H built while the test
    runs, each checked when it is built."""
    seen = []
    mv_init = DistributedMultiVector.__init__
    h_init = DistributedHermitian.__init__

    def recording_mv(self, *args, **kwargs):
        mv_init(self, *args, **kwargs)
        assert_one_array(self)
        seen.append(self)

    def recording_h(self, *args, **kwargs):
        h_init(self, *args, **kwargs)
        assert_h_tiles(self)
        seen.append(self)

    monkeypatch.setattr(DistributedMultiVector, "__init__", recording_mv)
    monkeypatch.setattr(DistributedHermitian, "__init__", recording_h)
    return seen


def _assert_one_array_each(built):
    """Still one array each once the solves are done."""
    assert any(isinstance(x, DistributedHermitian) for x in built)
    assert any(isinstance(x, DistributedMultiVector) for x in built)
    for x in built:
        if isinstance(x, DistributedHermitian):
            assert_h_tiles(x)
        else:
            assert_one_array(x)


def _solve(H, grid, nev, nex, **solver_kw):
    Hd = DistributedHermitian.from_dense(grid, H)
    solver = ChaseSolver(grid, Hd, ChaseConfig(nev=nev, nex=nex),
                         **solver_kw)
    res = solver.solve(rng=np.random.default_rng(99), return_vectors=True)
    assert res.converged
    lam = np.linalg.eigvalsh(H)[:nev]
    np.testing.assert_allclose(res.eigenvalues, lam, rtol=0, atol=1e-8)
    return solver, res


@pytest.mark.parametrize("fused", [False, True], ids=["per-block", "fused"])
@pytest.mark.parametrize("dtype, p, q", [(np.float64, 2, 2),
                                         (np.complex128, 2, 3)],
                         ids=["real-2x2", "complex-2x3"])
@pytest.mark.parametrize("scheme", ["new", "lms"])
def test_solve_builds_one_array_per_layout(built, scheme, dtype, p, q,
                                           fused):
    H = hermitian(np.random.default_rng(8), 120, dtype)
    _solve(H, make_grid(p * q, p=p, q=q, fused=fused), 15, 10, scheme=scheme)
    _assert_one_array_each(built)


def test_hhqr_solve_builds_one_array_per_layout(built):
    H = hermitian(np.random.default_rng(9), 96)
    _solver, res = _solve(H, make_grid(4), 10, 6, qr_mode="hhqr")
    assert set(res.qr_variants) == {"HHQR"}
    _assert_one_array_each(built)


def test_recoveries_build_one_array_per_layout(built):
    """A rank death shrinks the grid and restores onto the survivors; a
    kernel crash restores the last checkpoint after a bit flip."""
    H = hermitian(np.random.default_rng(10), 96)
    death = FaultPlan(events=(FaultEvent(FaultKind.RANK_DEATH, rank=1,
                                         time=0.0),))
    solver, res = _solve(H, make_grid(4), 10, 6, faults=death)
    assert res.recoveries >= 1 and solver.grid.p * solver.grid.q == 3
    crash = FaultPlan(events=(
        FaultEvent(FaultKind.BIT_CORRUPTION, rank=1, iteration=1, seed=77),
        FaultEvent(FaultKind.KERNEL_CRASH, rank=3, iteration=2)))
    _solver, res = _solve(H, make_grid(4), 10, 6, faults=crash,
                          checkpoint_every=1)
    assert res.recoveries >= 1 and res.checkpoints >= 1
    _assert_one_array_each(built)
