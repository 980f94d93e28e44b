"""Tests for Rayleigh-Ritz, residuals, and locking."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ChaseConfig, ChaseSolver, chase_serial
from repro.core.locking import plan_locking, wanted_locked
from repro.core.qr import QRReport, cholesky_qr
from repro.core.rayleigh_ritz import rayleigh_ritz
from repro.core.residuals import residuals
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.matrices import (
    bse_spectrum, dft_spectrum, matrix_with_spectrum, uniform_spectrum)
from tests.conftest import make_grid


def rr_setup(rng, N=40, ne=8, p=2, q=2):
    A = rng.standard_normal((N, N))
    H = (A + A.T) / 2
    g = make_grid(p * q, p=p, q=q)
    Hd = DistributedHermitian.from_dense(g, H)
    hemm = DistributedHemm(Hd)
    V = rng.standard_normal((N, ne))
    C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
    cholesky_qr(g, C, 2, QRReport())
    C2 = DistributedMultiVector.zeros(g, Hd.rowmap, "C", ne, H.dtype, False)
    C2.copy_cols_from(C, 0, ne)
    B = DistributedMultiVector.zeros(g, Hd.colmap, "B", ne, H.dtype, False)
    B2 = DistributedMultiVector.zeros(g, Hd.colmap, "B", ne, H.dtype, False)
    return H, g, hemm, C, C2, B, B2


class TestRayleighRitz:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2)])
    def test_matches_dense_projection(self, rng, p, q):
        H, g, hemm, C, C2, B, B2 = rr_setup(rng, p=p, q=q)
        Q0 = C.gather(0).copy()
        ritz = rayleigh_ritz(hemm, C, C2, B, B2, locked=0)
        A = Q0.T @ H @ Q0
        ref = np.linalg.eigvalsh(0.5 * (A + A.T))
        np.testing.assert_allclose(ritz, ref, atol=1e-10)

    def test_vectors_are_ritz_vectors(self, rng):
        H, g, hemm, C, C2, B, B2 = rr_setup(rng)
        ritz = rayleigh_ritz(hemm, C, C2, B, B2, locked=0)
        V = C.gather(0)
        # V^H H V must be diagonal with the Ritz values
        P = V.T @ H @ V
        np.testing.assert_allclose(np.diag(P), ritz, atol=1e-9)
        np.testing.assert_allclose(P - np.diag(ritz), 0.0, atol=1e-9)

    def test_c2_synchronized(self, rng):
        H, g, hemm, C, C2, B, B2 = rr_setup(rng)
        rayleigh_ritz(hemm, C, C2, B, B2, locked=0)
        np.testing.assert_allclose(C.gather(0), C2.gather(0))

    def test_locked_columns_preserved(self, rng):
        H, g, hemm, C, C2, B, B2 = rr_setup(rng)
        frozen = C.gather(0)[:, :3].copy()
        rayleigh_ritz(hemm, C, C2, B, B2, locked=3)
        np.testing.assert_allclose(C.gather(0)[:, :3], frozen)

    def test_invariant_subspace_exact(self, rng):
        """If C spans an exact invariant subspace, RR returns exact
        eigenvalues of H."""
        A = rng.standard_normal((30, 30))
        H = (A + A.T) / 2
        w, Q = np.linalg.eigh(H)
        g = make_grid(4)
        Hd = DistributedHermitian.from_dense(g, H)
        hemm = DistributedHemm(Hd)
        ne = 5
        C = DistributedMultiVector.from_global(g, Q[:, :ne], Hd.rowmap, "C")
        C2 = DistributedMultiVector.zeros(g, Hd.rowmap, "C", ne, H.dtype, False)
        C2.copy_cols_from(C, 0, ne)
        B = DistributedMultiVector.zeros(g, Hd.colmap, "B", ne, H.dtype, False)
        B2 = DistributedMultiVector.zeros(g, Hd.colmap, "B", ne, H.dtype, False)
        ritz = rayleigh_ritz(hemm, C, C2, B, B2, 0)
        np.testing.assert_allclose(ritz, w[:ne], atol=1e-10)


class TestResiduals:
    def test_matches_direct_norms(self, rng):
        H, g, hemm, C, C2, B, B2 = rr_setup(rng)
        ritz = rayleigh_ritz(hemm, C, C2, B, B2, 0)
        resd = residuals(hemm, C, C2, B, B2, ritz, 0)
        V = C.gather(0)
        ref = np.linalg.norm(H @ V - V * ritz[None, :], axis=0)
        np.testing.assert_allclose(resd, ref, atol=1e-10)

    def test_exact_eigenvectors_zero_residual(self, rng):
        A = rng.standard_normal((30, 30))
        H = (A + A.T) / 2
        w, Q = np.linalg.eigh(H)
        g = make_grid(4)
        Hd = DistributedHermitian.from_dense(g, H)
        hemm = DistributedHemm(Hd)
        ne = 4
        C = DistributedMultiVector.from_global(g, Q[:, :ne], Hd.rowmap, "C")
        C2 = DistributedMultiVector.zeros(g, Hd.rowmap, "C", ne, H.dtype, False)
        C2.copy_cols_from(C, 0, ne)
        B = DistributedMultiVector.zeros(g, Hd.colmap, "B", ne, H.dtype, False)
        B2 = DistributedMultiVector.zeros(g, Hd.colmap, "B", ne, H.dtype, False)
        resd = residuals(hemm, C, C2, B, B2, w[:ne], 0)
        assert resd.max() < 1e-12

    def test_active_slice_only(self, rng):
        H, g, hemm, C, C2, B, B2 = rr_setup(rng)
        ritz = rayleigh_ritz(hemm, C, C2, B, B2, 2)
        full = np.concatenate([np.zeros(2), ritz])
        resd = residuals(hemm, C, C2, B, B2, full, 2)
        assert resd.shape == (6,)


class TestLocking:
    def test_basic_lock(self):
        resd = np.array([1e-12, 0.5, 1e-12, 0.3])
        ritzv = np.array([1.0, 2.0, 0.5, 3.0])
        r = plan_locking(resd, ritzv, locked=0, tol_abs=1e-10)
        assert r.new_converged == 2
        # converged columns ordered by Ritz value: col 2 (0.5), col 0 (1.0)
        np.testing.assert_array_equal(r.perm, [2, 0, 1, 3])

    def test_locked_prefix_untouched(self):
        resd = np.array([99.0, 1e-12, 0.5])  # resd[0] ignored (locked)
        ritzv = np.array([0.0, 1.0, 2.0])
        r = plan_locking(resd, ritzv, locked=1, tol_abs=1e-10)
        assert r.new_converged == 1
        np.testing.assert_array_equal(r.perm, [0, 1, 2])

    def test_nothing_converged(self):
        r = plan_locking(np.array([1.0, 1.0]), np.array([0.0, 1.0]), 0, 1e-10)
        assert r.new_converged == 0
        np.testing.assert_array_equal(r.perm, [0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_locking(np.zeros(2), np.zeros(3), 0, 1e-10)
        with pytest.raises(ValueError):
            plan_locking(np.zeros(2), np.zeros(2), 3, 1e-10)
        with pytest.raises(ValueError):
            plan_locking(np.zeros(2), np.zeros(2), 0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 30),
        locked=st.integers(0, 29),
        seed=st.integers(0, 1000),
    )
    def test_perm_is_permutation_preserving_locked(self, n, locked, seed):
        locked = min(locked, n)
        rng = np.random.default_rng(seed)
        resd = rng.uniform(0, 1, n)
        ritzv = rng.standard_normal(n)
        r = plan_locking(resd, ritzv, locked, tol_abs=0.5)
        assert sorted(r.perm) == list(range(n))
        np.testing.assert_array_equal(r.perm[:locked], np.arange(locked))
        # everything the plan locked is actually converged
        newly = r.perm[locked : locked + r.new_converged]
        assert np.all(resd[newly] < 0.5)
        assert r.locked == locked + r.new_converged


class TestWantedLocked:
    """The stop test: ``nev`` locked is not enough, the ``nev`` *lowest*
    Ritz values must be the locked ones."""

    @pytest.mark.parametrize("ritzv, locked, done", [
        ([0.1, 0.2, 0.3, 0.4, 0.5], 2, False),   # fewer than nev locked
        ([0.3, 0.1, 0.2, 0.5, 0.4], 5, True),    # all ne locked
        ([0.1, 0.2, 0.4, 0.3, 0.5], 3, False),   # wanted 0.3 still active
        ([0.1, 0.3, 0.2, 0.6, 0.5], 4, True),    # only an extra is active
    ])
    def test_stop_only_on_the_nev_lowest(self, ritzv, locked, done):
        assert wanted_locked(np.array(ritzv), locked, nev=3) is done


# every case returned a converged *extra* in place of a wanted pair that
# missed tol by a hair, while the loop stopped at ``locked >= nev``
_WRONG_AT_PR20 = [
    (uniform_spectrum, 400, 59), (uniform_spectrum, 400, 66),
    (uniform_spectrum, 400, 71), (dft_spectrum, 300, 18),
    (bse_spectrum, 300, 16),
]


@pytest.mark.parametrize("distributed", [False, True],
                         ids=["chase_serial", "ChaseSolver_2x2"])
@pytest.mark.parametrize(
    "spectrum, n, seed", _WRONG_AT_PR20,
    ids=[f"{f.__name__}-{n}-{s}" for f, n, s in _WRONG_AT_PR20])
def test_solve_returns_the_nev_lowest_eigenpairs(spectrum, n, seed, distributed):
    H = matrix_with_spectrum(spectrum(n), rng=np.random.default_rng(seed))
    cfg = ChaseConfig(nev=n // 10, nex=n // 20)
    rng = np.random.default_rng(seed + 1)
    if distributed:
        g = make_grid(4, p=2, q=2)
        res = ChaseSolver(
            g, DistributedHermitian.from_dense(g, H), cfg).solve(rng=rng)
    else:
        res = chase_serial(H, cfg, rng=rng)
    assert res.converged
    np.testing.assert_allclose(
        res.eigenvalues, np.linalg.eigvalsh(H)[:cfg.nev], rtol=0, atol=1e-8)
