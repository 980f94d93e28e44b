"""Tests for the custom distributed HEMM (layout-alternating H-apply)."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.distributed.hemm
from repro.core.precision import narrow_dtype
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.runtime import CommBackend, ExecutionConfig
from tests.conftest import make_grid


def setup(H, p=2, q=2, **kw):
    g = make_grid(p * q, p=p, q=q, **kw)
    Hd = DistributedHermitian.from_dense(g, H)
    return g, Hd, DistributedHemm(Hd)


class TestHemmCorrectness:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (2, 3), (3, 2), (1, 4)])
    def test_c_to_b_matches_dense(self, rng, p, q):
        A = rng.standard_normal((31, 31))
        H = (A + A.T) / 2
        V = rng.standard_normal((31, 5))
        g, Hd, hemm = setup(H, p, q)
        C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
        out = hemm.apply(C)
        assert out.layout == "B"
        np.testing.assert_allclose(out.gather(0), H @ V, atol=1e-12)
        assert out.replication_error() < 1e-14

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
    def test_b_to_c_matches_dense(self, rng, p, q):
        A = rng.standard_normal((30, 30))
        H = (A + A.T) / 2
        V = rng.standard_normal((30, 4))
        g, Hd, hemm = setup(H, p, q)
        B = DistributedMultiVector.from_global(g, V, Hd.colmap, "B")
        out = hemm.apply(B)
        assert out.layout == "C"
        np.testing.assert_allclose(out.gather(0), H @ V, atol=1e-12)

    def test_complex_hermitian(self, rng):
        A = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        H = (A + A.conj().T) / 2
        V = rng.standard_normal((24, 3)) + 1j * rng.standard_normal((24, 3))
        g, Hd, hemm = setup(H)
        C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
        np.testing.assert_allclose(hemm.apply(C).gather(0), H @ V, atol=1e-12)

    def test_shift_and_scale(self, rng):
        A = rng.standard_normal((20, 20))
        H = (A + A.T) / 2
        V = rng.standard_normal((20, 3))
        g, Hd, hemm = setup(H)
        C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
        out = hemm.apply(C, alpha=-1.5, gamma=0.7)
        ref = -1.5 * (H - 0.7 * np.eye(20)) @ V
        np.testing.assert_allclose(out.gather(0), ref, atol=1e-12)

    def test_column_slice(self, rng):
        A = rng.standard_normal((20, 20))
        H = (A + A.T) / 2
        V = rng.standard_normal((20, 6))
        g, Hd, hemm = setup(H)
        C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
        out = hemm.apply(C, slice(2, 5))
        assert out.ne == 3
        np.testing.assert_allclose(out.gather(0), H @ V[:, 2:5], atol=1e-12)

    def test_matvec_counter(self, rng):
        A = rng.standard_normal((20, 20))
        H = (A + A.T) / 2
        g, Hd, hemm = setup(H)
        V = rng.standard_normal((20, 6))
        C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
        hemm.apply(C)
        hemm.apply(C, slice(0, 2))
        assert hemm.matvecs == 8

    def test_empty_slice_rejected(self, rng):
        A = rng.standard_normal((20, 20))
        H = (A + A.T) / 2
        g, Hd, hemm = setup(H)
        C = DistributedMultiVector.from_global(
            g, rng.standard_normal((20, 6)), Hd.rowmap, "C"
        )
        with pytest.raises(ValueError):
            hemm.apply(C, slice(3, 3))

    def test_phantom_shapes_and_cost(self):
        g = make_grid(4)
        Hd = DistributedHermitian.phantom(g, 1000, np.float64)
        hemm = DistributedHemm(Hd)
        C = DistributedMultiVector.zeros(g, Hd.rowmap, "C", 10, np.float64, True)
        out = hemm.apply(C)
        assert out.is_phantom
        assert out.local(0, 0).shape == (500, 10)
        assert g.cluster.makespan() > 0

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(6, 30),
        ne=st.integers(1, 5),
        gamma=st.floats(-2, 2),
        seed=st.integers(0, 1000),
    )
    def test_roundtrip_property(self, n, ne, gamma, seed):
        """(H - g) applied C->B then B->C equals the dense (H - g)^2."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        H = (A + A.T) / 2
        V = rng.standard_normal((n, ne))
        g2, Hd, hemm = setup(H, 2, 2)
        C = DistributedMultiVector.from_global(g2, V, Hd.rowmap, "C")
        mid = hemm.apply(C, gamma=gamma)
        out = hemm.apply(mid, gamma=gamma)
        S = H - gamma * np.eye(n)
        np.testing.assert_allclose(out.gather(0), S @ (S @ V), atol=1e-9)


# ------------------------------------------------------------ column slices
@pytest.mark.parametrize("cols,expect", [
    (slice(-3, None), (3, 6)),      # negative start: the last three
    (slice(4, 9), (4, 6)),          # stop clipped to ne
    (slice(None, 3), (0, 3)),       # open start
    (slice(0, 6, 2), None),         # non-unit step
    (slice(3, 3), None),            # empty
], ids=["negative", "clipped", "open", "stepped", "empty"])
@pytest.mark.parametrize("phantom", [False, True], ids=["numeric", "phantom"])
def test_column_slice_is_normalised_once(rng, phantom, cols, expect):
    """``cols`` means what it means to NumPy — in the result's width, in
    the columns computed and in ``matvecs`` — or the apply is refused
    with an error naming the slice and ``ne``, and not counted."""
    n, ne = 60, 6
    g = make_grid(4, phantom=phantom)
    if phantom:
        Hd = DistributedHermitian.phantom(g, n, np.float64)
        C = DistributedMultiVector.zeros(g, Hd.rowmap, "C", ne, np.float64, True)
    else:
        A = rng.standard_normal((n, n))
        H = (A + A.T) / 2
        V = rng.standard_normal((n, ne))
        Hd = DistributedHermitian.from_dense(g, H)
        C = DistributedMultiVector.from_global(g, V, Hd.rowmap, "C")
    hemm = DistributedHemm(Hd)
    if expect is None:
        with pytest.raises(ValueError) as err:
            hemm.apply(C, cols)
        assert repr(cols) in str(err.value) and f"ne={ne}" in str(err.value)
        assert hemm.matvecs == 0 and g.cluster.makespan() == 0.0
        return
    start, stop = expect
    out = hemm.apply(C, cols)
    assert out.ne == stop - start == hemm.matvecs
    assert {blk.shape[1] for blk in out.blocks.values()} == {stop - start}
    if not phantom:
        np.testing.assert_allclose(
            out.gather(0), H @ V[:, start:stop], atol=1e-12)


# ------------------------------------------- phantom == numeric, per apply
_EXECUTIONS = {
    "default": {},
    "plain": {"numeric_dedup": False},
    "fused": {"hemm_fusion": True},
}


def _two_applies(phantom, dtype, execution, backend, layout, alpha, gamma,
                 narrow):
    """Apply ``alpha (H - gamma I)`` there and back on a 2x3 grid with
    uneven blocks; returns every modeled output of the cluster."""
    n, ne = 101, 5
    g = make_grid(6, backend, p=2, q=3, phantom=phantom,
                  config=ExecutionConfig(**_EXECUTIONS[execution]))
    xdtype = narrow_dtype(dtype) if narrow else dtype
    if phantom:
        Hd = DistributedHermitian.phantom(g, n, dtype)
    else:
        rng = np.random.default_rng(7)
        A = rng.standard_normal((n, n)).astype(dtype)
        Hd = DistributedHermitian.from_dense(g, (A + A.conj().T) / 2)
    index_map = Hd.rowmap if layout == "C" else Hd.colmap
    if phantom:
        X = DistributedMultiVector.zeros(g, index_map, layout, ne, xdtype, True)
    else:
        X = DistributedMultiVector.from_global(
            g, rng.standard_normal((n, ne)).astype(xdtype), index_map, layout)
    hemm = DistributedHemm(Hd)
    Y = hemm.apply(X, alpha=alpha, gamma=gamma)
    hemm.apply(Y, alpha=alpha, gamma=gamma)
    return (list(g.cluster.clocks), g.comm_stats(), g.comm_stats_levels())


@pytest.mark.parametrize("narrow", [False, True], ids=["wide", "narrow"])
@pytest.mark.parametrize("execution", list(_EXECUTIONS),
                         ids=[f"{name}-blocking" for name in _EXECUTIONS])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                         ids=["real", "complex"])
def test_phantom_apply_is_charged_exactly_as_the_numeric_one(
        dtype, execution, narrow):
    """The phantom replay and the numeric solve are one model: per
    apply, every rank clock and both CommStats views are equal bit for
    bit, whatever the numerics do — in every cell of the lattice."""
    for backend, layout, (alpha, gamma) in itertools.product(
            (CommBackend.NCCL, CommBackend.MPI_STAGED), "CB",
            ((1.0, 0.0), (0.7, 0.3))):
        cell = (dtype, execution, backend, layout, alpha, gamma, narrow)
        assert _two_applies(True, *cell) == _two_applies(False, *cell), cell


# ------------------------------------------------------- structural guard
def test_hemm_has_one_driver():
    """The one blocking reduction and each numeric kernel have one call
    site in ``hemm.py`` and the nonblocking API none: a second apply
    path cannot grow back beside the first."""
    tree = ast.parse(Path(repro.distributed.hemm.__file__).read_text())
    called = [
        getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]
    for name in ("allreduce", "block_numeric",
                 "panel_cb_numeric", "panel_bc_numeric"):
        assert called.count(name) == 1, (name, called.count(name))
    assert called.count("iallreduce") == 0
