"""Tests for the distributed Chebyshev filter."""

import numpy as np
import pytest

from repro.core.filter import _axpby, chebyshev_filter
from repro.core.serial import _filter_serial
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
    Operand,
)
from tests.conftest import assert_one_array, make_grid


def dist_setup(H, V, p=2, q=2):
    g = make_grid(p * q, p=p, q=q)
    Hd = DistributedHermitian.from_dense(g, H)
    C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
    return g, Hd, DistributedHemm(Hd), C


@pytest.fixture
def problem(rng):
    lam = np.linspace(-2.0, 2.0, 36)
    Q = np.linalg.qr(rng.standard_normal((36, 36)))[0]
    H = (Q * lam[None, :]) @ Q.T
    H = (H + H.T) / 2
    V = rng.standard_normal((36, 6))
    mu_ne = lam[6]
    b_sup = 2.001
    c, e = (b_sup + mu_ne) / 2, (b_sup - mu_ne) / 2
    return H, V, c, e, lam[0]


class TestFilterEquivalence:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (2, 3), (3, 2)])
    def test_matches_serial_uniform_degree(self, problem, p, q):
        H, V, c, e, mu1 = problem
        degs = np.full(6, 8, dtype=np.int64)
        ref, ref_mv = _filter_serial(H, V.copy(), degs, c, e, mu1)
        g, Hd, hemm, C = dist_setup(H, V, p, q)
        mv = chebyshev_filter(hemm, C, 0, degs, c, e, mu1)
        np.testing.assert_allclose(C.gather(), ref, rtol=1e-9, atol=1e-9)
        assert mv == ref_mv == 6 * 8

    def test_matches_serial_mixed_degrees(self, problem):
        H, V, c, e, mu1 = problem
        degs = np.array([2, 4, 4, 8, 10, 14], dtype=np.int64)
        ref, _ = _filter_serial(H, V.copy(), degs, c, e, mu1)
        g, Hd, hemm, C = dist_setup(H, V)
        mv = chebyshev_filter(hemm, C, 0, degs, c, e, mu1)
        np.testing.assert_allclose(C.gather(), ref, rtol=1e-9, atol=1e-9)
        assert mv == int(degs.sum())

    def test_locked_columns_untouched(self, problem):
        H, V, c, e, mu1 = problem
        g, Hd, hemm, C = dist_setup(H, V)
        before = C.gather()[:, :2].copy()
        degs = np.full(4, 6, dtype=np.int64)
        chebyshev_filter(hemm, C, 2, degs, c, e, mu1)
        np.testing.assert_allclose(C.gather()[:, :2], before)

    def test_filter_is_matrix_polynomial(self, problem):
        """The filtered block equals p(H) V for a degree-m Chebyshev-type
        polynomial: verify via eigendecomposition that each eigenvalue
        component is scaled by the same factor across columns."""
        H, V, c, e, mu1 = problem
        g, Hd, hemm, C = dist_setup(H, V)
        m = 8
        degs = np.full(6, m, dtype=np.int64)
        chebyshev_filter(hemm, C, 0, degs, c, e, mu1)
        F = C.gather()
        lam, Q = np.linalg.eigh(H)
        # coefficient-wise ratio (Q^T F) / (Q^T V) must be a function of
        # the eigenvalue only
        num = Q.T @ F
        den = Q.T @ V
        ratios = num / den
        spread = np.abs(ratios - ratios[:, :1]).max()
        assert spread < 1e-6 * np.abs(ratios).max()

    def test_amplifies_wanted_damps_unwanted(self, problem):
        H, V, c, e, mu1 = problem
        g, Hd, hemm, C = dist_setup(H, V)
        degs = np.full(6, 12, dtype=np.int64)
        chebyshev_filter(hemm, C, 0, degs, c, e, mu1)
        F = C.gather()
        lam, Q = np.linalg.eigh(H)
        comp_in = np.linalg.norm(Q[:, :6].T @ F)   # wanted subspace
        comp_out = np.linalg.norm(Q[:, 6:].T @ F)  # damped subspace
        in0 = np.linalg.norm(Q[:, :6].T @ V)
        out0 = np.linalg.norm(Q[:, 6:].T @ V)
        assert comp_in / comp_out > 1e3 * (in0 / out0)


class TestFilterValidation:
    def test_odd_degree_rejected(self, problem):
        H, V, c, e, mu1 = problem
        g, Hd, hemm, C = dist_setup(H, V)
        with pytest.raises(ValueError):
            chebyshev_filter(hemm, C, 0, np.array([3] * 6), c, e, mu1)

    def test_unsorted_rejected(self, problem):
        H, V, c, e, mu1 = problem
        g, Hd, hemm, C = dist_setup(H, V)
        with pytest.raises(ValueError):
            chebyshev_filter(hemm, C, 0, np.array([8, 4, 4, 4, 4, 4]), c, e, mu1)

    def test_wrong_length_rejected(self, problem):
        H, V, c, e, mu1 = problem
        g, Hd, hemm, C = dist_setup(H, V)
        with pytest.raises(ValueError):
            chebyshev_filter(hemm, C, 0, np.array([4, 4]), c, e, mu1)

    def test_mu1_above_interval_rejected(self, problem):
        H, V, c, e, _ = problem
        g, Hd, hemm, C = dist_setup(H, V)
        with pytest.raises(ValueError):
            chebyshev_filter(hemm, C, 0, np.full(6, 4), c, e, c + e)

    def test_no_active_columns(self, problem):
        H, V, c, e, mu1 = problem
        g, Hd, hemm, C = dist_setup(H, V)
        assert chebyshev_filter(hemm, C, 6, np.empty(0, dtype=np.int64), c, e, mu1) == 0


class TestAxpby:
    def test_values(self, rng):
        """The recurrence's uncharged AXPBY, blockwise once per group."""
        g = make_grid(4)
        from repro.distributed import BlockMap1D

        m = BlockMap1D(20, 2)
        X = DistributedMultiVector.from_global(g, rng.standard_normal((20, 3)), m, "C")
        Y = DistributedMultiVector.from_global(g, rng.standard_normal((20, 3)), m, "C")
        Z = _axpby(2.0, X, -0.5, Y)
        np.testing.assert_allclose(Z.gather(), 2 * X.gather() - 0.5 * Y.gather())
        assert_one_array(Z)


# ------------------------------------------- charge from the signature, then compute
def _filter_once(phantom, backend, dtype, p, q, narrow, config):
    """One filter call with retirements on a ``p x q`` grid; returns every
    modeled output of the cluster and the MatVecs."""
    from repro.core.precision import narrow_dtype
    from repro.runtime import CostCategory, ExecutionConfig

    n, ne, locked = 61, 7, 1
    g = make_grid(p * q, backend, p=p, q=q, phantom=phantom,
                  config=ExecutionConfig(**config))
    if phantom:
        Hd = DistributedHermitian.phantom(g, n, dtype)
        C = Operand("C", ne, np.dtype(dtype), Hd.rowmap)
    else:
        rng = np.random.default_rng(5)
        A = rng.standard_normal((n, n)).astype(dtype)
        Hd = DistributedHermitian.from_dense(g, (A + A.conj().T) / 2)
        C = DistributedMultiVector.from_global(
            g, rng.standard_normal((n, ne)).astype(dtype), Hd.rowmap, "C")
    degrees = np.array([2, 4, 4, 6, 8, 8])
    with g.cluster.tracer.phase("Filter"):
        mv = chebyshev_filter(
            DistributedHemm(Hd), C, locked, degrees, 1.5, 2.0, -1.0,
            work_dtype=narrow_dtype(dtype) if narrow else None)
    tracer = g.cluster.tracer
    rows = {ph: [[tracer.rank_total(r, ph, cat) for cat in CostCategory]
                 for r in range(p * q)] for ph in tracer.phases()}
    return (mv, list(g.cluster.clocks), rows, g.comm_stats(),
            g.comm_stats_levels())


@pytest.mark.parametrize("config", [{}, {"hemm_fusion": True}],
                         ids=["default", "fused"])
@pytest.mark.parametrize("narrow", [False, True], ids=["fp64", "fp32"])
@pytest.mark.parametrize("dtype,p,q", [(np.float64, 2, 2),
                                       (np.complex128, 2, 3)],
                         ids=["real-2x2", "complex-2x3"])
@pytest.mark.parametrize("backend", ["nccl", "mpi"])
def test_numeric_filter_is_charged_as_the_phantom_one(
        backend, dtype, p, q, narrow, config):
    """Both modes run one loop whose steps are charged from their
    signatures: clocks, tracer rows, CommStats with levels and MatVecs
    are equal bit for bit, whatever the numerics do."""
    from repro.runtime import CommBackend

    backend = CommBackend.NCCL if backend == "nccl" else CommBackend.MPI_STAGED
    cell = (backend, dtype, p, q, narrow, config)
    numeric = _filter_once(False, *cell)
    assert numeric[0] == 32  # the degrees' sum
    assert _filter_once(True, *cell) == numeric


@pytest.mark.parametrize("phantom", [False, True], ids=["numeric", "phantom"])
def test_every_filter_hemm_is_one_apply(monkeypatch, phantom):
    """Each recurrence step applies H through ``DistributedHemm.apply`` —
    a multivector on a numeric grid, an ``Operand`` on a phantom one —
    and the product reports the step's width, so what counts applies
    counts every filter MatVec in both modes."""
    from repro.runtime import CommBackend

    widths, apply = [], DistributedHemm.apply

    def counted(self, X, *args, **kwargs):
        W = apply(self, X, *args, **kwargs)
        widths.append(W.ne)
        return W

    monkeypatch.setattr(DistributedHemm, "apply", counted)
    cell = (CommBackend.NCCL, np.float64, 2, 2, False, {})
    assert _filter_once(phantom, *cell)[0] == sum(widths) == 32
    assert len(widths) == 8  # one apply per step up to the highest degree


def test_phantom_filter_step_builds_no_data(monkeypatch):
    """Once its steps are recorded, a phantom filter call charges them
    and builds nothing: no multivector (so no column view or buffer
    list) and no shape proxy."""
    from repro.arrays import PhantomArray

    g = make_grid(16, phantom=True)
    Hd = DistributedHermitian.phantom(g, 400, np.complex128)
    hemm = DistributedHemm(Hd)
    C = Operand("C", 40, np.dtype(np.complex128), Hd.rowmap)
    degrees = np.sort(np.arange(40) % 9 * 2 + 2)

    def run():
        return chebyshev_filter(hemm, C, 4, degrees[4:], 1.5, 2.0, -1.0)

    run()  # records the steps
    built = []
    init, post = DistributedMultiVector.__init__, PhantomArray.__post_init__
    monkeypatch.setattr(DistributedMultiVector, "__init__", lambda s, *a, **k: (
        built.append(s), init(s, *a, **k))[-1])
    monkeypatch.setattr(PhantomArray, "__post_init__", lambda s: (
        built.append(s), post(s))[-1])
    assert run() == int(degrees[4:].sum())
    assert built == []
