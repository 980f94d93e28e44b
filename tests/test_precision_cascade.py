"""Three-precision cascade + mixed-precision CholeskyQR2 (DESIGN.md §5j).

The §5g binary fp32/fp64 guarantees stay pinned in
``test_mixed_precision.py``; this module covers the half tiers:

* the **ladder is monotone**: decisions over any residual trajectory
  form a prefix-stable sequence and the sticky tier index never
  decreases, in every three-tier mode (fp16 / bf16 / auto);
* **half-tier solves are still correct**: a solve that filtered on the
  fp16/bf16 lattice converges to the dense oracle at fp64 tolerance on
  every execution tier, including the multiprocess transport;
* **mixed CholeskyQR2 restores fp64 orthogonality**: when the doubling
  bound (arXiv:1710.08471) admits a narrow first pass, the fp64 second
  pass lands ``||Q^H Q - I||`` at O(eps64) — for every first-pass tier,
  real and complex;
* **narrowly stored warm-start subspaces upcast** instead of missing:
  a tuned fp32-filter sequence step still warm-starts the next (fp64)
  step;
* the **rate table and 2-byte accounting** resolve per device and per
  token, with fp64 pinned at factor 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChaseConfig, ChaseSolver, PrecisionPolicy
from repro.core.precision import (
    BF16_EPS,
    FP16_EPS,
    TIER_EPS,
    quantize_half_inplace,
    resolve_work_precision,
)
from repro.core.qr import (
    QRReport,
    caqr_1d,
    mixed_cholesky_qr2,
    qr_work_precision,
    unit_roundoff,
)
from repro.distributed import (
    BlockMap1D,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.perfmodel.autotune import DEFAULT_PRECISION_OPTIONS, default_config
from repro.perfmodel.kernels import dtype_rate_factor, dtype_token, elem_bytes
from repro.perfmodel.machine import DeviceSpec
from repro.perfmodel.memory import chase_new_scheme_bytes
from repro.runtime import (
    CommBackend,
    ExecutionConfig,
    Grid2D,
    VirtualCluster,
)
from repro.service import EigenService, JobState, SolveJob, scf_sequence
from repro.service.warmstart import WarmStartCache, WarmStartMiss
from tests.conftest import make_grid

N, NEV, NEX = 160, 18, 12


def scenario_matrix(dtype=np.float64, seed=2024):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    if np.dtype(dtype).kind == "c":
        A = A + 1j * rng.standard_normal((N, N))
    return ((A + A.conj().T) / 2).astype(dtype)


def run_scenario(deg, tol=1e-10, p=2, q=4, seed=2718, **execution):
    """One distributed solve at filter degree ``deg`` under
    ``ExecutionConfig(**execution)``.

    Small initial degrees keep the iteration-1 condition estimate under
    the half-tier gates (the estimate grows with the planned degree),
    so fp16/bf16 modes actually engage their narrow lattice before the
    ladder climbs.
    """
    H = scenario_matrix()
    cluster = VirtualCluster(p * q, backend=CommBackend.NCCL,
                             config=ExecutionConfig(**execution))
    grid = Grid2D(cluster, p, q)
    Hd = DistributedHermitian.from_dense(grid, H)
    solver = ChaseSolver(grid, Hd,
                         ChaseConfig(nev=NEV, nex=NEX, tol=tol, deg=deg))
    return solver.solve(rng=np.random.default_rng(seed), return_vectors=True)


# --------------------------------------------------- ladder monotonicity
THREE_TIER_MODES = ["fp16", "bf16", "auto"]


@pytest.mark.parametrize("mode", THREE_TIER_MODES)
@given(
    start=st.floats(min_value=1e-4, max_value=1.0),
    decay=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=2, max_value=30),
    k=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=40, deadline=None)
def test_three_tier_prefix_monotonicity(mode, start, decay, n, k):
    """Truncating a residual trajectory (a looser tolerance) replays the
    same decision prefix, and the narrow-tier count never grows when
    the run is extended — per tier, across the whole ladder."""
    k = min(k, n)
    resd = start * decay ** np.arange(n, dtype=np.float64)
    ladder = ("fp16", "bf16", "fp32", "fp64")

    def tokens(m):
        pol = PrecisionPolicy(mode)
        return [pol.decide(cond_est=1.0, resd=resd[i:i + 1], scale=1.0)
                for i in range(m)]

    full = tokens(n)
    pre = tokens(k)
    assert pre == full[:k]
    # the sticky ladder index never decreases along a trajectory
    idx = [ladder.index(t) for t in full]
    assert idx == sorted(idx)


@pytest.mark.parametrize("mode", THREE_TIER_MODES)
def test_half_floor_can_skip_tiers(mode):
    """A residual already past the fp32 floor promotes straight to fp64
    — never pausing on an intermediate tier whose floor is also hit."""
    pol = PrecisionPolicy(mode)
    first = pol.decide(cond_est=1.0, resd=[1e-1], scale=1.0)
    assert first != "fp64"
    floor32 = pol.floor_factor * TIER_EPS["fp32"]
    assert pol.decide(cond_est=1.0, resd=[floor32 / 2], scale=1.0) == "fp64"
    assert pol.promoted
    # every sticky climb was recorded, narrowest to widest
    assert pol.promotions[-1][1] == "fp64"
    assert all(r == "residual floor" for _s, _d, r in pol.promotions)


def test_half_cond_gates_scale_with_tier_eps():
    """The per-tier conditioning ceilings scale as eps32/eps_t: a cond
    estimate of 100 exceeds bf16's ceiling (~15) but not fp16's (~122),
    and neither tier's gate is sticky."""
    fp16_limit = 1e6 * TIER_EPS["fp32"] / FP16_EPS
    bf16_limit = 1e6 * TIER_EPS["fp32"] / BF16_EPS
    assert bf16_limit < 100.0 < fp16_limit
    p16 = PrecisionPolicy("fp16")
    assert p16.decide(cond_est=100.0, resd=None, scale=1.0) == "fp16"
    pbf = PrecisionPolicy("bf16")
    assert pbf.decide(cond_est=100.0, resd=None, scale=1.0) == "fp32"
    # non-sticky: a shrinking estimate falls back to the sticky tier
    # (residual 0.5 stays above bf16's accuracy floor of ~0.39)
    assert pbf.decide(cond_est=2.0, resd=[0.5], scale=1.0) == "bf16"


def test_quantize_half_inplace_is_idempotent_and_bounded():
    rng = np.random.default_rng(3)
    for token, eps in (("fp16", FP16_EPS), ("bf16", BF16_EPS)):
        x = rng.standard_normal(513).astype(np.float32)
        q = quantize_half_inplace(x.copy(), token)
        np.testing.assert_array_equal(quantize_half_inplace(q.copy(), token), q)
        assert np.all(np.abs(q - x) <= eps * np.abs(x) + 1e-12)
        z = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) \
            .astype(np.complex64)
        qz = quantize_half_inplace(z.copy(), token)
        assert np.all(np.abs(qz.real - z.real) <= eps * np.abs(z.real) + 1e-12)
        assert np.all(np.abs(qz.imag - z.imag) <= eps * np.abs(z.imag) + 1e-12)


# ------------------------------------------------ half solves on every tier
#: (dedup, fused, pipelined) — one representative per tier
TIERS = [
    (False, False, False),
    (True, False, False),
    (True, True, False),
    (True, False, True),
]
TIER_IDS = ["seed", "dedup", "fused", "pipelined"]

#: (mode, deg, seed) — degrees that keep the iteration-1 cond estimate
#: under each half tier's gate for the scenario matrix
HALF_CASES = [("bf16", 2, 2718), ("fp16", 4, 7)]


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
@pytest.mark.parametrize("mode,deg,seed", HALF_CASES)
def test_half_solve_accurate_at_fp64_tolerance_on_every_tier(
        tier, mode, deg, seed):
    """A solve that filtered on the half lattice must still converge to
    the dense oracle at fp64 tolerance on every execution tier — and
    must actually have filtered on the half tier."""
    dedup, fused, pipelined = tier
    res = run_scenario(
        deg, seed=seed, numeric_dedup=dedup, hemm_fusion=fused,
        pipeline_chunks=3 if pipelined else 0, filter_dtype=mode)
    assert res.converged
    assert mode in res.precision_log
    evs = np.sort(np.linalg.eigvalsh(scenario_matrix()))[:NEV]
    scale = max(abs(evs[0]), abs(evs[-1]), 1.0)
    assert np.abs(res.eigenvalues - evs).max() <= 1e-9 * scale


def test_half_solve_accurate_on_mp_transport():
    """The bf16 lattice round-trips the multiprocess data plane: worker
    processes see the same quantized panels the orchestrated oracle
    computed (the in-solve parity assert would raise otherwise)."""
    n, nev, nex = 96, 10, 6
    rng0 = np.random.default_rng(2024)
    A = rng0.standard_normal((n, n))
    H = (A + A.T) / 2
    evs = np.sort(np.linalg.eigvalsh(H))[:nev]
    with VirtualCluster(
            4, backend="mp",
            config=ExecutionConfig(filter_dtype="bf16")) as cluster:
        grid = Grid2D(cluster, 2, 2)
        Hd = DistributedHermitian.from_dense(grid, H)
        solver = ChaseSolver(
            grid, Hd, ChaseConfig(nev=nev, nex=nex, tol=1e-10, deg=2))
        res = solver.solve(rng=np.random.default_rng(7),
                           return_vectors=True)
    assert res.converged
    assert res.precision_log[0] == "bf16"
    scale = max(abs(evs[0]), abs(evs[-1]), 1.0)
    assert np.abs(res.eigenvalues - evs).max() <= 1e-9 * scale


def test_auto_mode_starts_on_bf16():
    res = run_scenario(2, filter_dtype="auto")
    assert res.converged
    assert res.precision_log[0] == "bf16"


# ------------------------------------------------- mixed CholeskyQR2
def conditioned_matrix(rng, m, n, cond):
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    W = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.logspace(0, -np.log10(cond), n)
    return (U * s[None, :]) @ W.T


def make_mv(grid, V):
    return DistributedMultiVector.from_global(
        grid, V, BlockMap1D(V.shape[0], grid.p), "C")


def orthogonality_error(Q):
    n = Q.shape[1]
    return np.abs(Q.conj().T @ Q - np.eye(n)).max()


class TestMixedCholeskyQR2:
    def test_doubling_bound_gates(self):
        """Admission is ``est_cond <= guard / sqrt(u_t)`` per tier; fp64
        mode and a too-ill-conditioned basis resolve to no narrow pass."""
        assert qr_work_precision(np.float64, "fp64", 1.0) is None
        w = qr_work_precision(np.complex128, "auto", 5.0)
        assert w is not None and w.token == "fp16"
        assert qr_work_precision(np.complex128, "auto", 100.0).token == "fp32"
        assert qr_work_precision(np.complex128, "auto", 5000.0) is None
        # per-tier: bf16's gate (~8) rejects what fp16's (~22) admits
        assert 0.5 / np.sqrt(unit_roundoff("bf16")) < 10.0
        assert qr_work_precision(np.float64, "bf16", 10.0) is None
        assert qr_work_precision(np.float64, "fp16", 10.0).token == "fp16"
        # an fp32 base has no narrower fp32 to win with
        assert qr_work_precision(np.float32, "fp32", 10.0) is None
        with pytest.raises(ValueError):
            qr_work_precision(np.float64, "fp8", 1.0)

    @pytest.mark.parametrize("token", ["fp16", "bf16", "fp32"])
    def test_orthogonality_at_eps64_when_gate_admits(self, rng, token):
        """Narrow first pass + fp64 second pass: ``||Q^H Q - I||`` lands
        at O(eps64), exactly as the doubling argument promises."""
        g = make_grid(4)
        V = conditioned_matrix(rng, 60, 8, cond=5.0)
        C = make_mv(g, V)
        rep = QRReport()
        work = qr_work_precision(np.float64, token, 5.0)
        assert work is not None and work.token == token
        assert mixed_cholesky_qr2(g, C, rep, work) == 0
        Q = C.gather(0)
        assert orthogonality_error(Q) < 1e-13
        assert rep.first_pass_dtype == token
        assert rep.chol_iterations == 2
        # the span is preserved to the narrow pass's precision (the
        # quantized input defines it); orthogonality above is fp64-exact
        span_err = np.abs(Q @ (Q.T @ V) - V).max()
        assert span_err <= 10.0 * unit_roundoff(token)

    def test_complex_orthogonality(self, rng):
        g = make_grid(4)
        V = conditioned_matrix(rng, 40, 5, 5.0) \
            + 1j * conditioned_matrix(rng, 40, 5, 5.0)
        C = make_mv(g, V)
        rep = QRReport()
        work = qr_work_precision(np.complex128, "bf16", 3.0)
        assert mixed_cholesky_qr2(g, C, rep, work) == 0
        assert orthogonality_error(C.gather(0)) < 1e-13

    def test_caqr_dispatches_mixed_variant(self, rng):
        """Algorithm 4 + §5j: inside the CholeskyQR2 regime an admitted
        work precision takes the mixed path and names its tier."""
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 60, 8, cond=100.0))
        work = qr_work_precision(np.float64, "auto", 100.0)
        rep = caqr_1d(g, C, est_cond=100.0, work=work)
        assert rep.variant == "mCholeskyQR2[fp32]"
        assert orthogonality_error(C.gather(0)) < 1e-13

    def test_caqr_shifted_regime_ignores_work(self, rng):
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 60, 8, cond=1e9))
        rep = caqr_1d(g, C, est_cond=1e9,
                      work=qr_work_precision(np.float64, "fp32", 1.0))
        assert rep.variant == "sCholeskyQR2"

    def test_solver_qr_scope_end_to_end(self):
        """``qr_dtype='auto'`` inside a real solve: the answer still
        matches the dense oracle at fp64 tolerance."""
        res = run_scenario(10, qr_dtype="auto")
        assert res.converged
        evs = np.sort(np.linalg.eigvalsh(scenario_matrix()))[:NEV]
        scale = max(abs(evs[0]), abs(evs[-1]), 1.0)
        assert np.abs(res.eigenvalues - evs).max() <= 1e-9 * scale


# ------------------------------------------------- warm-start upcasting
class TestWarmStartUpcast:
    def _basis(self, dtype=np.float64):
        return np.random.default_rng(0).standard_normal((12, 4)).astype(dtype)

    def _bounds(self):
        from repro.core.lanczos import SpectralBounds
        return SpectralBounds(b_sup=2.0, mu1=-1.0, mu_ne=0.5)

    def test_narrow_store_upcasts_on_wide_lookup(self):
        c = WarmStartCache()
        basis = self._basis()
        c.put("s", step=0, basis=basis, bounds=self._bounds(),
              store_dtype=np.float32)
        entry, miss = c.get("s", 12, 4, np.float64)
        assert miss is None and entry is not None
        assert entry.basis.dtype == np.float64
        assert entry.intact  # the derived entry carries its own checksum
        np.testing.assert_array_equal(
            entry.basis, basis.astype(np.float32).astype(np.float64))
        # the cache keeps the narrow original (half the budget)
        narrow, _ = c.get("s", 12, 4, np.float32)
        assert narrow.basis.dtype == np.float32

    def test_downcast_and_kind_mismatch_stay_typed_misses(self):
        c = WarmStartCache()
        c.put("wide", step=0, basis=self._basis(), bounds=self._bounds())
        entry, miss = c.get("wide", 12, 4, np.float32)
        assert entry is None and miss is WarmStartMiss.DTYPE
        c.put("cplx", step=0, basis=self._basis(np.complex64),
              bounds=self._bounds())
        entry, miss = c.get("cplx", 12, 4, np.float64)
        assert entry is None and miss is WarmStartMiss.DTYPE

    def test_corruption_detected_before_upcast(self):
        c = WarmStartCache()
        c.put("s", step=0, basis=self._basis(), bounds=self._bounds(),
              store_dtype=np.float32)
        c._entries["s"].basis[0, 0] += 1.0  # corrupt the stored bytes
        entry, miss = c.get("s", 12, 4, np.float64)
        assert entry is None and miss is WarmStartMiss.CORRUPT

    def test_tuned_fp32_sequence_step_still_warm_starts(self):
        """Regression: a tuned fp32-filter step stores its subspace
        narrowly; the next step of the sequence must be a warm *hit*
        (upcast), not a ``miss:dtype``, and still converge."""
        hams = scf_sequence(160, 2, seed=3)
        svc = EigenService(total_ranks=8, n_shards=2, tune="off")
        cfg = dataclasses.replace(
            default_config(4), execution=ExecutionConfig(
                filter_dtype="fp32", comm_compress="fp32"))
        for k, H in enumerate(hams):
            key = (4, H.shape[0], 20, 10, np.dtype(H.dtype).str)
            svc._tuned[key] = ("forced-fp32", cfg)
            svc.submit(SolveJob(H=H, nev=20, nex=10, sequence_id="scf",
                                step=k, seed=7, tenant="alice"))
        results = svc.run()
        assert all(r.state is JobState.DONE and r.converged for r in results)
        # the cached basis really is narrow
        assert svc.cache._entries["scf"].basis.dtype == np.float32
        step0, step1 = results
        assert step0.warmstart == "miss:absent"
        assert step1.warm_hit, step1.warmstart
        assert step1.iterations <= step0.iterations
        for r in results:
            ref = np.linalg.eigvalsh(hams[r.step])[:20]
            np.testing.assert_allclose(r.eigenvalues, ref, atol=1e-7)


# -------------------------------------------- rate table + byte accounting
class TestRateTableAndBytes:
    def test_dtype_token_normalization(self):
        assert dtype_token(np.float64) == "fp64"
        assert dtype_token(np.complex128) == "fp64"
        assert dtype_token(np.float32) == "fp32"
        assert dtype_token("bf16") == "bf16"
        assert dtype_token("fp16") == "fp16"

    def test_elem_bytes_half_tokens(self):
        assert elem_bytes("fp16") == 2.0
        assert elem_bytes("bf16") == 2.0
        # complex context doubles the token width (two half words)
        assert elem_bytes("bf16", like=np.dtype(np.complex128)) == 4.0
        assert elem_bytes(np.float32) == 4.0
        assert elem_bytes(np.complex64) == 8.0

    def test_rate_factor_resolution_order(self):
        dev = DeviceSpec(
            name="x", gemm_rate=1.0, level3_rate=1.0, factor_rate=1.0,
            geqrf_rate=1.0, blas1_bandwidth=1.0, launch_overhead=0.0,
            eff_half_flops=1.0, memory_bytes=1,
            rate_table=(("fp32", 1.5), ("fp16", 8.0)),
        )
        # fp64 is pinned at 1.0 and never read from the table
        assert dtype_rate_factor(np.float64, dev) == 1.0
        assert dtype_rate_factor(np.complex128, dev) == 1.0
        # the device table wins where it has an entry...
        assert dtype_rate_factor(np.float32, dev) == 1.5
        assert dtype_rate_factor("fp16", dev) == 8.0
        # ...the defaults fill in the rest
        assert dtype_rate_factor("bf16", dev) == 4.0
        assert dtype_rate_factor("bf16", None) == 4.0
        assert dtype_rate_factor(np.float32, None) == 2.0

    def test_half_work_set_halves_footprint_delta(self):
        base = chase_new_scheme_bytes(1024, 64, 2, 2)
        w32 = chase_new_scheme_bytes(1024, 64, 2, 2, work_dtype=np.float32)
        wbf = chase_new_scheme_bytes(1024, 64, 2, 2, work_dtype="bf16")
        assert base < wbf < w32
        # 2-byte words: the half working set costs half the fp32 one
        assert (wbf - base) * 2 == pytest.approx(w32 - base, rel=1e-12)

    def test_default_tuned_space_covers_the_cascade(self):
        """The tuned-by-default search space carries all three narrow
        filter tiers and the mixed-QR knob, with the fp64 seed config
        first (the tie-break anchor)."""
        assert DEFAULT_PRECISION_OPTIONS[0] == ("fp64", "none", "fp64")
        filters = {opt[0] for opt in DEFAULT_PRECISION_OPTIONS}
        assert {"fp64", "fp32", "bf16", "fp16"} <= filters
        assert any(opt[2] != "fp64" for opt in DEFAULT_PRECISION_OPTIONS)
