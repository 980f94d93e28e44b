"""Tests for the CholeskyQR family and the Algorithm 4 selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import hhqr_1d
from repro.core.qr import (
    CHOLQR1_THRESHOLD,
    SHIFTED_THRESHOLD,
    MIXED_VARIANT,
    QRReport,
    caqr_1d,
    cholesky_qr,
    run_qr_variant,
    shifted_cholesky_qr2,
)
from repro.distributed import BlockMap1D, DistributedMultiVector
from tests.conftest import assert_one_array, make_grid


def make_mv(grid, V):
    return DistributedMultiVector.from_global(grid, V, BlockMap1D(V.shape[0], grid.p), "C")


def conditioned_matrix(rng, m, n, cond):
    """m x n matrix with prescribed 2-norm condition number."""
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    W = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.logspace(0, -np.log10(cond), n)
    return (U * s[None, :]) @ W.T


def orthogonality_error(Q):
    n = Q.shape[1]
    return np.abs(Q.conj().T @ Q - np.eye(n)).max()


class TestCholeskyQR:
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 3)])
    def test_cholqr1_well_conditioned(self, rng, p, q):
        g = make_grid(p * q, p=p, q=q)
        V = conditioned_matrix(rng, 40, 6, cond=5.0)
        C = make_mv(g, V)
        rep = QRReport()
        assert cholesky_qr(g, C, 1, rep) == 0
        Q = C.gather()
        assert orthogonality_error(Q) < 1e-12
        assert_one_array(C)
        # same column space
        np.testing.assert_allclose(Q @ (Q.T @ V), V, atol=1e-8)

    def test_cholqr2_moderately_conditioned(self, rng):
        g = make_grid(4)
        V = conditioned_matrix(rng, 60, 8, cond=1e6)
        C = make_mv(g, V)
        rep = QRReport()
        assert cholesky_qr(g, C, 2, rep) == 0
        assert orthogonality_error(C.gather()) < 1e-13
        assert rep.chol_iterations == 2

    def test_cholqr1_loses_orthogonality_when_ill_conditioned(self, rng):
        """The instability that motivates CholeskyQR2 (paper Sec. 3.2)."""
        g = make_grid(4)
        V = conditioned_matrix(rng, 60, 8, cond=1e7)
        C = make_mv(g, V)
        cholesky_qr(g, C, 1, QRReport())
        assert orthogonality_error(C.gather()) > 1e-10

    def test_breakdown_on_extreme_condition(self, rng):
        """POTRF fails once kappa^2 overflows the Gram matrix precision."""
        g = make_grid(4)
        V = conditioned_matrix(rng, 60, 8, cond=1e12)
        C = make_mv(g, V)
        rep = QRReport()
        info = cholesky_qr(g, C, 1, rep)
        assert info != 0 and rep.breakdowns == 1

    def test_complex(self, rng):
        g = make_grid(4)
        V = conditioned_matrix(rng, 40, 5, 10).astype(complex)
        V += 1j * conditioned_matrix(rng, 40, 5, 10)
        C = make_mv(g, V)
        assert cholesky_qr(g, C, 2, QRReport()) == 0
        assert orthogonality_error(C.gather()) < 1e-12

    def test_bad_degree(self, rng):
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 20, 3, 2))
        with pytest.raises(ValueError):
            cholesky_qr(g, C, 0, QRReport())


class TestShiftedCholeskyQR2:
    def test_handles_very_ill_conditioned(self, rng):
        g = make_grid(4)
        V = conditioned_matrix(rng, 80, 8, cond=1e12)
        C = make_mv(g, V)
        rep = QRReport()
        shifted_cholesky_qr2(g, C, rep)
        assert rep.shifted
        assert not rep.fallback_hhqr
        assert orthogonality_error(C.gather()) < 1e-12

    def test_hhqr_rescue_on_rank_deficiency(self, rng):
        """A numerically rank-deficient block defeats even the shifted
        Cholesky pass -> Algorithm 4 line 9 falls back to HHQR."""
        g = make_grid(4)
        V = conditioned_matrix(rng, 60, 7, cond=1e19)
        V[:, -1] = V[:, 0]  # exact duplicate column
        C = make_mv(g, V)
        rep = QRReport()
        shifted_cholesky_qr2(g, C, rep)
        # either the shifted pass coped, or HHQR rescued it; in both cases
        # the result must be orthonormal
        assert orthogonality_error(C.gather()) < 1e-10


class TestSelectionHeuristic:
    def test_low_cond_picks_cholqr1(self, rng):
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 40, 5, 3))
        rep = caqr_1d(g, C, est_cond=CHOLQR1_THRESHOLD / 2)
        assert rep.variant == "CholeskyQR1"
        assert rep.chol_iterations == 1

    def test_mid_cond_picks_cholqr2(self, rng):
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 40, 5, 1e4))
        rep = caqr_1d(g, C, est_cond=1e5)
        assert rep.variant == "CholeskyQR2"
        assert rep.chol_iterations == 2

    def test_high_cond_picks_shifted(self, rng):
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 40, 5, 1e10))
        rep = caqr_1d(g, C, est_cond=SHIFTED_THRESHOLD * 10)
        assert rep.variant == "sCholeskyQR2"
        assert rep.shifted

    def test_underestimate_escalates(self, rng):
        """If the estimate lied (cond says easy, matrix is impossible),
        the breakdown path escalates instead of failing."""
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 60, 8, cond=1e13))
        rep = caqr_1d(g, C, est_cond=5.0)
        assert rep.variant == "sCholeskyQR2"
        assert rep.breakdowns >= 1
        assert orthogonality_error(C.gather()) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 8),
        log_cond=st.floats(0, 13),
        seed=st.integers(0, 100),
    )
    def test_selection_always_orthonormalizes(self, n, log_cond, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(4)
        cond = 10.0**log_cond
        V = conditioned_matrix(rng, 12 * n, n, cond)
        C = make_mv(g, V)
        caqr_1d(g, C, est_cond=cond * 2)  # estimate = honest upper bound
        assert orthogonality_error(C.gather()) < 1e-9


class TestRunVariant:
    """The one 'run the named variant, escalate on breakdown' function
    behind ``caqr_1d``, the forced ``qr_mode`` values and the replay."""

    NAMES = ["HHQR", "CholeskyQR1", "CholeskyQR2", MIXED_VARIANT,
             "sCholeskyQR2"]

    @pytest.mark.parametrize("variant", NAMES)
    def test_named_variant_runs_as_named(self, rng, variant):
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 40, 5, 3))
        rep = run_qr_variant(g, C, variant, work=np.float32)
        assert rep.variant == variant and rep.breakdowns == 0
        assert rep.shifted == (variant == "sCholeskyQR2")
        assert (rep.first_pass_dtype == "fp32") == (variant == MIXED_VARIANT)
        assert orthogonality_error(C.gather()) < 1e-12

    @pytest.mark.parametrize("variant", NAMES[1:4])
    def test_breakdown_escalates_to_shifted(self, rng, variant):
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 60, 8, cond=1e13))
        rep = run_qr_variant(g, C, variant, work=np.float32)
        assert rep.variant == "sCholeskyQR2" and rep.shifted
        assert rep.breakdowns >= 1
        assert orthogonality_error(C.gather()) < 1e-10


class TestHHQR:
    def test_orthonormal_and_replicated(self, rng):
        g = make_grid(6, p=3, q=2)
        V = conditioned_matrix(rng, 33, 6, 1e8)
        C = make_mv(g, V)
        hhqr_1d(g, C)
        assert orthogonality_error(C.gather()) < 1e-13
        assert_one_array(C)

    def test_charges_compute_and_comm(self, rng):
        g = make_grid(4)
        V = conditioned_matrix(rng, 40, 6, 10)
        C = make_mv(g, V)
        hhqr_1d(g, C)
        assert g.cluster.makespan() > 0

    def test_hhqr_slower_than_choleskyqr(self, rng):
        """The Table 2 effect: at realistic sizes HHQR's modeled time
        (host factorization + staging) dwarfs device-resident CholeskyQR."""
        g1 = make_grid(4)
        g2 = make_grid(4)
        V = conditioned_matrix(rng, 4000, 256, 10)
        C1, C2 = make_mv(g1, V), make_mv(g2, V)
        hhqr_1d(g1, C1)
        cholesky_qr(g2, C2, 2, QRReport())
        assert g1.cluster.makespan() > g2.cluster.makespan()

    def test_wrong_layout_rejected(self, rng):
        g = make_grid(4)
        B = DistributedMultiVector.zeros(g, BlockMap1D(20, 2), "B", 3, np.float64)
        with pytest.raises(ValueError):
            hhqr_1d(g, B)
