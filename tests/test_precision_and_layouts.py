"""Tests for the paper's templating axes: real/complex x single/double
precision, and the block distribution of H when the grid does not
divide its order."""

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver, chase_serial
from repro.core.qr import shifted_threshold, unit_roundoff
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from tests.conftest import make_grid


def _solve_dist(H, cfg, seed=2, **kw):
    g = make_grid(4, **kw)
    Hd = DistributedHermitian.from_dense(g, H)
    solver = ChaseSolver(g, Hd, cfg)
    return solver.solve(rng=np.random.default_rng(seed), return_vectors=True)


class TestPrecisionSupport:
    """ChASE is 'templated for complex/real type and double/single
    precision' (paper Sec. 2)."""

    @pytest.fixture
    def H64(self, rng):
        return uniform_matrix(200, rng=rng)

    @pytest.mark.parametrize(
        "dtype,tol,final",
        [
            (np.float64, 1e-10, 1e-8),
            (np.float32, 5e-5, 5e-5),
            (np.complex128, 1e-10, 1e-8),
            (np.complex64, 5e-5, 5e-5),
        ],
    )
    def test_serial_all_dtypes(self, H64, dtype, tol, final):
        H = H64.astype(dtype)
        res = chase_serial(
            H, ChaseConfig(nev=10, nex=8, tol=tol), rng=np.random.default_rng(1)
        )
        assert res.converged
        w_true = np.linalg.eigvalsh(H64)[:10]
        assert np.abs(res.eigenvalues - w_true).max() < 50 * final
        assert res.eigenvectors.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-5), (np.complex64, 5e-5)])
    def test_distributed_single_precision(self, H64, dtype, tol):
        H = H64.astype(dtype)
        res = _solve_dist(H, ChaseConfig(nev=10, nex=8, tol=tol))
        assert res.converged
        w_true = np.linalg.eigvalsh(H64)[:10]
        assert np.abs(res.eigenvalues - w_true).max() < 1e-3

    def test_unit_roundoff(self):
        assert unit_roundoff(np.float64) == pytest.approx(1.11e-16, rel=0.01)
        assert unit_roundoff(np.float32) == pytest.approx(5.96e-8, rel=0.01)
        # complex dtypes use their real base type
        assert unit_roundoff(np.complex128) == unit_roundoff(np.float64)
        assert unit_roundoff(np.complex64) == unit_roundoff(np.float32)

    def test_shifted_threshold_precision_dependence(self):
        """Algorithm 4's switch is O(u^-1/2): ~1e8 double, ~4e3 single."""
        assert 9e7 < shifted_threshold(np.float64) < 1.1e8
        assert 3e3 < shifted_threshold(np.float32) < 5e3

    def test_single_precision_switches_earlier(self, rng):
        """A block that double precision handles with CholeskyQR2 must be
        routed to the shifted variant in single precision."""
        from repro.core.qr import caqr_1d
        from repro.distributed import BlockMap1D, DistributedMultiVector

        U = np.linalg.qr(rng.standard_normal((200, 8)))[0]
        s = np.logspace(0, -5, 8)  # kappa = 1e5
        V = (U * s[None, :]).astype(np.float64)
        g64 = make_grid(4)
        C64 = DistributedMultiVector.from_global(g64, V, BlockMap1D(200, 2), "C")
        rep64 = caqr_1d(g64, C64, est_cond=2e5)
        g32 = make_grid(4)
        C32 = DistributedMultiVector.from_global(
            g32, V.astype(np.float32), BlockMap1D(200, 2), "C"
        )
        rep32 = caqr_1d(g32, C32, est_cond=2e5)
        assert rep64.variant == "CholeskyQR2"
        assert rep32.variant == "sCholeskyQR2"


class TestRaggedBlockSolver:
    """H 'is distributed ... following a block distribution' (paper
    Sec. 2.2); when ``p`` or ``q`` does not divide ``N`` the leading
    parts own one more index.  End-to-end on such layouts."""

    @pytest.mark.parametrize("n", [149, 151, 137])
    def test_ragged_block_matches_dense(self, rng, n):
        H = uniform_matrix(n, rng=rng)
        res = _solve_dist(H, ChaseConfig(nev=10, nex=6))
        assert res.converged
        w_true = np.linalg.eigvalsh(H)[:10]
        assert np.abs(res.eigenvalues - w_true).max() < 1e-8

    def test_grid_shape_does_not_change_trajectory(self, rng):
        """The layout must not change the algorithm: identical
        iterations and eigenvalues from the same starting basis."""
        H = uniform_matrix(141, rng=rng)
        cfg = ChaseConfig(nev=8, nex=6)
        V0 = np.random.default_rng(33).standard_normal((141, 14))
        results = []
        for p, q in [(2, 2), (1, 4), (4, 1)]:
            g = make_grid(4, p=p, q=q)
            results.append(ChaseSolver(
                g, DistributedHermitian.from_dense(g, H), cfg
            ).solve(V0=V0, rng=np.random.default_rng(4)))
        for res in results[1:]:
            assert res.iterations == results[0].iterations
            np.testing.assert_allclose(
                res.eigenvalues, results[0].eigenvalues, atol=1e-10
            )

    def test_ragged_nonsquare_grid(self, rng):
        H = uniform_matrix(121, rng=rng)
        g = make_grid(6, p=2, q=3)
        Hd = DistributedHermitian.from_dense(g, H)
        assert [Hd.colmap.local_size(j) for j in range(3)] == [41, 40, 40]
        res = ChaseSolver(g, Hd, ChaseConfig(nev=8, nex=4)).solve(
            rng=np.random.default_rng(5), return_vectors=True
        )
        assert res.converged
        w_true = np.linalg.eigvalsh(H)[:8]
        assert np.abs(res.eigenvalues - w_true).max() < 1e-8

    def test_ragged_complex(self, rng):
        A = rng.standard_normal((101, 101)) + 1j * rng.standard_normal((101, 101))
        H = (A + A.conj().T) / 2
        res = _solve_dist(H, ChaseConfig(nev=6, nex=4))
        assert res.converged
        w_true = np.linalg.eigvalsh(H)[:6]
        assert np.abs(res.eigenvalues - w_true).max() < 1e-8
