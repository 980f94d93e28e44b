"""Fused-panel HEMM tier (DESIGN.md §5c): numerics and invariants.

Cross-checks the fused execution tier against the per-block one:

* C->B (row-panel fusion preserves the contraction order) and B->C
  (the q-term reduction folds into the GEMM k-dimension): allclose to
  ``1e-13 * ||H||``.  C->B keeps the mathematical summation order, but
  BLAS tiles the wider fused m-dimension differently (different SIMD
  tail kernels at block-boundary rows), so even that direction is only
  reproducible to rounding — the truly bit-identical tier is the
  decoupled per-block one, covered by ``TestOutBuffers``;
* modeled makespans and CommStats: bit-identical in every mode.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.filter import FilterWorkspace, _axpby, chebyshev_filter
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.runtime import ExecutionConfig
from tests.conftest import make_grid


def _dense(rng, n, dtype):
    A = rng.standard_normal((n, n))
    if np.dtype(dtype).kind == "c":
        A = A + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


def _vectors(rng, n, ne, dtype):
    V = rng.standard_normal((n, ne))
    if np.dtype(dtype).kind == "c":
        V = V + 1j * rng.standard_normal((n, ne))
    return V


def _roundtrip(Hd, V, *, fused, p=2, q=2, gamma=0.0, alpha=1.0,
               cols=None):
    """One C->B and one B->C apply; returns gathers + modeled charges."""
    g = make_grid(p * q, p=p, q=q, config=ExecutionConfig(hemm_fusion=fused))
    H = DistributedHermitian.from_dense(g, Hd)
    hemm = DistributedHemm(H)
    C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
    B = hemm.apply(C, cols, gamma=gamma, alpha=alpha)
    C2 = hemm.apply(B, gamma=gamma, alpha=alpha)
    makespan = max(r.now for r in g.ranks)
    return B.gather(), C2.gather(), makespan, g.comm_stats()


class TestFusedCrossCheck:
    @settings(max_examples=12, deadline=None)
    @given(
        dtype=st.sampled_from([np.float64, np.complex128]),
        grid=st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 2), (1, 4), (4, 1)]),
        shift=st.sampled_from([(0.0, 1.0), (0.37, 1.0), (0.0, -1.9), (1.3, 0.4)]),
        n=st.integers(min_value=24, max_value=60),
        data=st.data(),
    )
    def test_fused_matches_per_block(self, dtype, grid, shift, n, data):
        p, q = grid
        gamma, alpha = shift
        ne = data.draw(st.integers(min_value=2, max_value=9), label="ne")
        lo = data.draw(st.integers(min_value=0, max_value=ne - 1), label="lo")
        hi = data.draw(st.integers(min_value=lo + 1, max_value=ne), label="hi")
        cols = slice(lo, hi)
        rng = np.random.default_rng(n * 1000 + p * 10 + q)
        Hd = _dense(rng, n, dtype)
        V = _vectors(rng, n, ne, dtype)

        kw = dict(p=p, q=q, gamma=gamma, alpha=alpha, cols=cols)
        ded = _roundtrip(Hd, V, fused=False, **kw)
        fus = _roundtrip(Hd, V, fused=True, **kw)

        # fused numerics: rounding-level agreement in both directions
        # (C->B keeps the contraction order but BLAS m-tiling differs;
        # B->C additionally folds the reduction into the k-dimension)
        scale = max(1.0, float(np.linalg.norm(Hd)))
        assert np.abs(ded[0] - fus[0]).max() <= 1e-13 * scale
        assert np.abs(ded[1] - fus[1]).max() <= 1e-13 * scale
        # modeled makespan and CommStats bit-identical in both modes
        assert ded[2] == fus[2]
        assert ded[3] == fus[3]


class TestOutBuffers:
    def test_stacked_out_receives_result(self, rng):
        Hd = _dense(rng, 40, np.float64)
        V = _vectors(rng, 40, 6, np.float64)
        g = make_grid(4, p=2, q=2,
                      config=ExecutionConfig(hemm_fusion=True))
        H = DistributedHermitian.from_dense(g, Hd)
        hemm = DistributedHemm(H)
        C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
        ref = hemm.apply(C).gather()
        out = DistributedMultiVector.zeros_stacked(
            g, H.colmap, "B", 6, np.float64
        )
        got = hemm.apply(C, out=out)
        assert np.array_equal(got.gather(), ref)
        # the result landed in the preallocated storage
        assert got.blocks[(0, 0)].base is out.stacked_base
        assert np.array_equal(out.gather(), ref)

    def test_out_used_without_fusion(self, rng):
        """out= engages the decoupled per-block tier even when fusion
        is off — numerics stay bit-identical to the apply without it."""
        Hd = _dense(rng, 36, np.complex128)
        V = _vectors(rng, 36, 5, np.complex128)
        seed = _roundtrip(Hd, V, fused=False)
        g = make_grid(4, p=2, q=2)
        H = DistributedHermitian.from_dense(g, Hd)
        hemm = DistributedHemm(H)
        C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
        out = DistributedMultiVector.zeros_stacked(
            g, H.colmap, "B", 5, np.complex128
        )
        B = hemm.apply(C, out=out)
        C2 = hemm.apply(B)
        assert np.array_equal(B.gather(), seed[0])
        assert np.array_equal(C2.gather(), seed[1])
        assert B.blocks[(1, 1)] is B.blocks[(0, 1)]  # one block per group

    def test_incompatible_out_is_ignored(self, rng):
        Hd = _dense(rng, 30, np.float64)
        V = _vectors(rng, 30, 4, np.float64)
        g = make_grid(4, p=2, q=2,
                      config=ExecutionConfig(hemm_fusion=True))
        H = DistributedHermitian.from_dense(g, Hd)
        hemm = DistributedHemm(H)
        C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
        ref = hemm.apply(C).gather()
        # wrong width and wrong layout: both silently ignored
        bad_w = DistributedMultiVector.zeros_stacked(
            g, H.colmap, "B", 9, np.float64
        )
        bad_l = DistributedMultiVector.zeros_stacked(
            g, H.rowmap, "C", 4, np.float64
        )
        assert np.array_equal(hemm.apply(C, out=bad_w).gather(), ref)
        assert np.array_equal(hemm.apply(C, out=bad_l).gather(), ref)


class TestFilterWorkspace:
    def test_filter_with_workspace_bitwise(self, rng):
        """Ping-pong buffers change storage, not bits: the filtered C
        matches the no-workspace run exactly (fusion off)."""
        n, ne = 48, 8
        Hd = _dense(rng, n, np.float64)
        V = _vectors(rng, n, ne, np.float64)
        degrees = np.array([2, 2, 4, 4, 4, 6, 6, 6], dtype=np.int64)
        ev = np.linalg.eigvalsh(Hd)
        c = (ev[-1] + ev[ne]) / 2
        e = (ev[-1] - ev[ne]) / 2
        mu1 = ev[0] - 0.1 * (ev[-1] - ev[0])

        outs = []
        for ws in (None, FilterWorkspace()):
            g = make_grid(4, p=2, q=2)
            H = DistributedHermitian.from_dense(g, Hd)
            hemm = DistributedHemm(H)
            C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
            mv = chebyshev_filter(
                hemm, C, 0, degrees, c, e, mu1, workspace=ws
            )
            outs.append((C.gather(), mv, max(r.now for r in g.ranks)))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]

    def test_workspace_reused_across_calls(self, rng):
        """Second filter call reuses the allocated buffers (no realloc
        for narrower active widths)."""
        n, ne = 40, 6
        Hd = _dense(rng, n, np.float64)
        V = _vectors(rng, n, ne, np.float64)
        ev = np.linalg.eigvalsh(Hd)
        c = (ev[-1] + ev[ne]) / 2
        e = (ev[-1] - ev[ne]) / 2
        mu1 = ev[0] - 0.1 * (ev[-1] - ev[0])
        ws = FilterWorkspace()
        g = make_grid(4, p=2, q=2,
                      config=ExecutionConfig(hemm_fusion=True))
        H = DistributedHermitian.from_dense(g, Hd)
        hemm = DistributedHemm(H)
        C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
        degrees = np.full(ne, 4, dtype=np.int64)
        chebyshev_filter(hemm, C, 0, degrees, c, e, mu1, workspace=ws)
        bases = {k: [b.stacked_base for b in pair]
                 for k, pair in ws._buffers.items()}
        degrees2 = np.full(ne - 2, 4, dtype=np.int64)
        chebyshev_filter(hemm, C, 2, degrees2, c, e, mu1, workspace=ws)
        for k, pair in ws._buffers.items():
            assert [b.stacked_base for b in pair] == bases[k]

class TestAxpby:
    def test_axpby_out_bitwise(self, rng):
        """The recurrence's in-place AXPBY (``out=``) gives the bits of
        a fresh one."""
        n, ne = 30, 5
        g = make_grid(4, p=2, q=2)
        H = DistributedHermitian.from_dense(g, _dense(rng, n, np.float64))
        X = DistributedMultiVector.from_global(
            g, _vectors(rng, n, ne, np.float64), H.rowmap, "C"
        )
        Y = DistributedMultiVector.from_global(
            g, _vectors(rng, n, ne, np.float64), H.rowmap, "C"
        )
        ref = _axpby(1.7, X, -0.3, Y).gather()
        out = DistributedMultiVector.zeros_stacked(
            g, H.rowmap, "C", ne, np.float64
        )
        got = _axpby(1.7, X, -0.3, Y, out=out)
        assert np.array_equal(got.gather(), ref)
        assert np.array_equal(out.gather(), ref)
