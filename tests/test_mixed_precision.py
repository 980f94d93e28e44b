"""Mixed-precision filter and mixed CholeskyQR2 (DESIGN.md §5g).

The guarantees pinned here:

* the **fp64 configuration is bit-identical to the seed path** on every
  execution tier — the precision layer is a strict no-op until opted
  into (eigenpairs, CommStats, per-phase breakdowns, makespan);
* **promotion is monotone**: the sticky fp64 fallback is driven by a
  tolerance-independent accuracy floor, so tightening ``tol`` can only
  append fp64 iterations, never convert one back to fp32;
* **narrow applies conserve bytes honestly**: wire bytes scale exactly
  with the buffer width and the per-level (intra/inter) split always
  sums to the byte total;
* **chaos interplay**: fault plans with fp32 filtering armed never
  return silently wrong eigenpairs — a solve either matches the dense
  oracle at fp64 tolerance or raises;
* **mixed CholeskyQR2 restores fp64 orthogonality**: when the doubling
  bound (arXiv:1710.08471) admits an fp32 first pass, the fp64 second
  pass lands ``||Q^H Q - I||`` at O(eps64), real and complex;
* **narrowly stored warm-start subspaces upcast** instead of missing:
  a tuned fp32-filter sequence step still warm-starts the next (fp64)
  step;
* the **fp32 rate factor** resolves per device, with fp64 pinned at 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChaseConfig, ChaseSolver, PrecisionPolicy, chase_serial
from repro.core.precision import FP32_EPS, narrow_dtype, resolve_work_dtype
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
from repro.distributed.hemm import DistributedHemm
from repro.perfmodel.autotune import default_config
from repro.perfmodel.kernels import dtype_rate_factor, dtype_token
from repro.perfmodel.machine import DeviceSpec
from repro.perfmodel.memory import chase_new_scheme_bytes
from repro.runtime import (
    CommBackend,
    ExecutionConfig,
    FaultPlan,
    Grid2D,
    VirtualCluster,
)
from repro.runtime.faults import FaultError
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


def run_scenario(backend=CommBackend.NCCL, dtype=np.float64, tol=1e-10,
                 p=2, q=4, solver_kw=None, seed=2718, deg=10, **execution):
    """One fixed distributed solve; returns all modeled outputs.

    ``deg=10`` keeps the iteration-1 condition estimate under the fp32
    gate so mixed-precision runs actually engage the narrow path.
    ``execution`` — :class:`ExecutionConfig` fields of the cluster.
    """
    H = scenario_matrix(dtype)
    cluster = VirtualCluster(p * q, backend=backend,
                             config=ExecutionConfig(**execution))
    grid = Grid2D(cluster, p, q)
    Hd = DistributedHermitian.from_dense(grid, H)
    solver = ChaseSolver(grid, Hd,
                         ChaseConfig(nev=NEV, nex=NEX, tol=tol, deg=deg),
                         **(solver_kw or {}))
    res = solver.solve(rng=np.random.default_rng(seed), return_vectors=True)
    grid = solver.grid
    stats = []
    for j in range(grid.q):
        s = grid.col_comm(j).stats
        stats.append(("col", j, s.as_tuple(), s.levels_tuple()))
    for i in range(grid.p):
        s = grid.row_comm(i).stats
        stats.append(("row", i, s.as_tuple(), s.levels_tuple()))
    timings = {ph: (b.compute, b.comm, b.datamove, b.recovery)
               for ph, b in res.timings.items()}
    clocks = [r.clock.now for r in grid.cluster.ranks]
    return res, stats, timings, clocks


# ------------------------------------------------------- fp64 bit-identity
#: (dedup, fused) — one representative per tier
TIERS = [
    (False, False),
    (True, False),
    (True, True),
]
TIER_IDS = ["seed", "dedup", "fused"]


def _run_tier(dedup, fused, **kw):
    return run_scenario(numeric_dedup=dedup, hemm_fusion=fused, **kw)


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_fp64_config_bit_identical_on_every_tier(tier):
    """Explicit fp64 fields must equal the default config
    byte-for-byte: eigenpairs, comm stats (legacy and per-level),
    per-phase breakdowns, every rank clock."""
    r0, s0, t0, c0 = _run_tier(*tier)
    r1, s1, t1, c1 = _run_tier(*tier, filter_dtype="fp64", qr_dtype="fp64")
    np.testing.assert_array_equal(r1.eigenvalues, r0.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r0.eigenvectors)
    assert r1.iterations == r0.iterations
    assert r1.makespan == r0.makespan
    assert s1 == s0 and t1 == t0 and c1 == c0
    assert set(r1.precision_log) == {"fp64"}


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_fp32_solve_accurate_at_fp64_tolerance_on_every_tier(tier):
    """Mixed-precision solves must still converge to the dense oracle at
    the solver's own fp64 tolerance on every execution tier."""
    res, _s, _t, _c = _run_tier(*tier, filter_dtype="fp32")
    assert res.converged
    assert "fp32" in res.precision_log
    evs = np.sort(np.linalg.eigvalsh(scenario_matrix()))[:NEV]
    scale = max(abs(evs[0]), abs(evs[-1]))
    assert np.abs(res.eigenvalues - evs).max() <= 1e-9 * max(scale, 1.0)


def test_fp32_and_fp64_precision_logs_differ():
    r64, *_ = run_scenario()
    r32, *_ = run_scenario(filter_dtype="fp32")
    assert set(r64.precision_log) == {"fp64"}
    assert r32.precision_log[0] == "fp32"
    assert len(r32.precision_log) == r32.iterations


# -------------------------------------------------- promotion monotonicity
@given(
    start=st.floats(min_value=1e-4, max_value=1.0),
    decay=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=2, max_value=30),
    k=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_policy_prefix_monotonicity(start, decay, n, k):
    """A looser tolerance stops the same residual trajectory earlier; the
    policy is memoryless across calls, so the shorter run's fp64 count
    can never exceed the longer run's (promotion monotonicity)."""
    k = min(k, n)
    resd = start * decay ** np.arange(n, dtype=np.float64)

    def fp64_count(m):
        pol = PrecisionPolicy("fp32")
        toks = [pol.decide(cond_est=1.0, resd=resd[i:i + 1], scale=1.0)
                for i in range(m)]
        return sum(t == "fp64" for t in toks), toks

    full_count, full = fp64_count(n)
    pre_count, pre = fp64_count(k)
    assert pre == full[:k]            # decisions are a prefix
    assert pre_count <= full_count    # tighter tol ⇒ never fewer fp64


def test_policy_promotes_on_floor_and_stays_promoted():
    pol = PrecisionPolicy("fp32", floor_factor=50.0)
    assert pol.decide(cond_est=1.0, resd=[1e-2], scale=1.0) == "fp32"
    floor = 50.0 * FP32_EPS
    assert pol.decide(cond_est=1.0, resd=[floor / 2], scale=1.0) == "fp64"
    assert pol.promote_reason == "residual floor"
    # sticky: even a large residual later stays fp64
    assert pol.decide(cond_est=1.0, resd=[1e-1], scale=1.0) == "fp64"


def test_policy_promotes_on_stagnation():
    pol = PrecisionPolicy("fp32", stall_ratio=0.9)
    assert pol.decide(cond_est=1.0, resd=[1e-2], scale=1.0) == "fp32"
    # < 10% improvement after an fp32 iteration: rounding noise suspected
    assert pol.decide(cond_est=1.0, resd=[0.99e-2], scale=1.0) == "fp64"
    assert pol.promote_reason == "residual stagnation"


def test_policy_cond_gate_is_not_sticky():
    pol = PrecisionPolicy("fp32", cond_limit=1e6)
    assert pol.decide(cond_est=1e8, resd=[1e-2], scale=1.0) == "fp64"
    assert pol.decide(cond_est=1e3, resd=[0.5e-2], scale=1.0) == "fp32"


def test_solve_monotone_fp64_iterations_in_tol():
    """Integration form: tightening tol never removes fp64 iterations."""
    counts = {}
    for tol in (1e-6, 1e-8, 1e-10):
        res, *_ = run_scenario(tol=tol, filter_dtype="fp32")
        counts[tol] = sum(t == "fp64" for t in res.precision_log)
    assert counts[1e-8] >= counts[1e-6]
    assert counts[1e-10] >= counts[1e-8]


def test_resolve_work_dtype():
    assert resolve_work_dtype(np.float64, "fp64") is None
    assert resolve_work_dtype(np.float64, "fp32") == np.dtype(np.float32)
    assert resolve_work_dtype(np.complex128, "fp32") == np.dtype(np.complex64)
    assert narrow_dtype(np.float32) == np.dtype(np.float32)
    for token in ("bf16", "fp16", "fp8"):
        with pytest.raises(ValueError):
            resolve_work_dtype(np.float64, token)


@pytest.mark.parametrize("token", ["bf16", "fp16", "auto"])
def test_policy_rejects_sub_fp32_modes(token):
    with pytest.raises(ValueError, match=r"\('fp64', 'fp32'\)"):
        PrecisionPolicy(token)


# -------------------------------------------------- narrow byte accounting
def _apply_bytes(x_dtype):
    """Total allreduce bytes of one HEMM apply."""
    H = scenario_matrix()
    cluster = VirtualCluster(8, backend=CommBackend.NCCL)
    grid = Grid2D(cluster, 2, 4)
    Hd = DistributedHermitian.from_dense(grid, H)
    hemm = DistributedHemm(Hd)
    rng = np.random.default_rng(5)
    X = DistributedMultiVector.from_global(
        grid, rng.standard_normal((N, 12)).astype(x_dtype), Hd.rowmap, "C"
    )
    hemm.apply(X)
    total = 0.0
    levels_ok = True
    for comm in [grid.col_comm(j) for j in range(grid.q)] + \
                [grid.row_comm(i) for i in range(grid.p)]:
        s = comm.stats
        total += s.bytes_moved
        levels_ok &= np.isclose(s.intra_bytes + s.inter_bytes, s.bytes_moved)
    assert levels_ok, "per-level byte split must sum to bytes_moved"
    return total


def test_narrow_apply_halves_wire_bytes():
    """Narrow buffers halve the wire."""
    assert _apply_bytes(np.float32) == 0.5 * _apply_bytes(np.float64)


def test_fp32_solve_byte_reduction():
    """End-to-end: an fp32-filter solve moves strictly fewer allreduce
    bytes than the fp64 baseline while still converging."""
    r64, s64, *_ = run_scenario()
    r32, s32, *_ = run_scenario(filter_dtype="fp32")
    assert r64.converged and r32.converged
    total64 = sum(t[2][2] for t in s64)
    total32 = sum(t[2][2] for t in s32)
    assert total32 < total64
    for _kind, _idx, legacy, levels in s32:
        assert levels[2] + levels[3] == pytest.approx(legacy[2])


# ----------------------------------------------------- cache invalidation
def test_narrow_h_cache_invalidated_on_version_bump():
    """A promote/demote cycle across an H mutation must never reuse a
    stale narrow panel (satellite: H.version-keyed invalidation)."""
    H = scenario_matrix()
    cluster = VirtualCluster(4, backend=CommBackend.NCCL)
    grid = Grid2D(cluster, 2, 2)
    Hd = DistributedHermitian.from_dense(grid, H)
    hemm = DistributedHemm(Hd)
    rng = np.random.default_rng(1)
    X32 = DistributedMultiVector.from_global(
        grid, rng.standard_normal((N, 6)).astype(np.float32), Hd.rowmap, "C"
    )
    Y0 = hemm.apply(X32).gather(0)
    assert hemm._hwork, "narrow apply must populate the work-dtype cache"
    # mutate one block through the supported mutator
    blk = Hd.local(0, 0).copy()
    blk += np.eye(*blk.shape)
    Hd.replace_local(0, 0, blk)
    Y1 = hemm.apply(X32).gather(0)
    delta = np.abs(Y1 - Y0).max()
    assert delta > 0.0, "stale narrow H panel reused after version bump"


# ------------------------------------------------------------------ chaos
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_chaos_fp32_never_silently_wrong(seed):
    """Fault plans with the fp32 filter armed: the solve
    either converges to the dense oracle at fp64 tolerance or raises a
    typed fault — silent corruption of the answer is impossible."""
    plan = FaultPlan.random(seed, 8, horizon=0.02, n_events=3)
    try:
        res, *_ = run_scenario(solver_kw=dict(faults=plan), seed=seed,
                               filter_dtype="fp32")
    except FaultError:
        return  # an honest failure is an acceptable outcome
    if not res.converged:
        return
    evs = np.sort(np.linalg.eigvalsh(scenario_matrix()))[:NEV]
    scale = max(abs(evs[0]), abs(evs[-1]), 1.0)
    assert np.abs(res.eigenvalues - evs).max() <= 1e-8 * scale


def test_serial_oracle_matches_fp32_distributed():
    """The serial reference and an fp32 distributed solve agree on the
    spectrum to fp64 accuracy (acceptance-layer contract)."""
    H = scenario_matrix()
    ser = chase_serial(H, ChaseConfig(nev=NEV, nex=NEX),
                       rng=np.random.default_rng(9))
    res, *_ = run_scenario(seed=9, filter_dtype="fp32")
    assert ser.converged and res.converged
    assert np.abs(ser.eigenvalues - res.eigenvalues).max() <= 1e-9


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
        """Admission is ``est_cond <= guard / sqrt(u_32)`` (~2e3); fp64
        mode and a too-ill-conditioned basis resolve to no narrow pass."""
        assert qr_work_precision(np.float64, "fp64", 1.0) is None
        assert qr_work_precision(np.float64, "fp32", 100.0) == np.float32
        assert qr_work_precision(np.complex128, "fp32", 100.0) == np.complex64
        assert qr_work_precision(np.complex128, "fp32", 5000.0) is None
        # an fp32 base has no narrower fp32 to win with
        assert qr_work_precision(np.float32, "fp32", 10.0) is None
        for token in ("bf16", "fp16", "auto", "fp8"):
            with pytest.raises(ValueError):
                qr_work_precision(np.float64, token, 1.0)

    def test_orthogonality_at_eps64_when_gate_admits(self, rng):
        """fp32 first pass + fp64 second pass: ``||Q^H Q - I||`` lands
        at O(eps64), exactly as the doubling argument promises."""
        g = make_grid(4)
        V = conditioned_matrix(rng, 60, 8, cond=5.0)
        C = make_mv(g, V)
        rep = QRReport()
        work = qr_work_precision(np.float64, "fp32", 5.0)
        assert mixed_cholesky_qr2(g, C, rep, work) == 0
        Q = C.gather(0)
        assert orthogonality_error(Q) < 1e-13
        assert rep.first_pass_dtype == "fp32"
        assert rep.chol_iterations == 2
        # the span is preserved to the narrow pass's precision (the
        # demoted input defines it); orthogonality above is fp64-exact
        span_err = np.abs(Q @ (Q.T @ V) - V).max()
        assert span_err <= 10.0 * unit_roundoff(np.float32)

    def test_complex_orthogonality(self, rng):
        g = make_grid(4)
        V = conditioned_matrix(rng, 40, 5, 5.0) \
            + 1j * conditioned_matrix(rng, 40, 5, 5.0)
        C = make_mv(g, V)
        work = qr_work_precision(np.complex128, "fp32", 3.0)
        assert mixed_cholesky_qr2(g, C, QRReport(), work) == 0
        assert orthogonality_error(C.gather(0)) < 1e-13

    def test_caqr_dispatches_mixed_variant(self, rng):
        """Algorithm 4 + §5g: inside the CholeskyQR2 regime an admitted
        work precision takes the mixed path and names it."""
        g = make_grid(4)
        C = make_mv(g, conditioned_matrix(rng, 60, 8, cond=100.0))
        work = qr_work_precision(np.float64, "fp32", 100.0)
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
        """``qr_dtype='fp32'`` inside a real solve (``deg=6`` puts the
        iteration-1 estimate inside the doubling gate): the mixed variant
        is actually taken and the answer still matches the dense oracle
        at fp64 tolerance."""
        res, *_ = run_scenario(deg=6, qr_dtype="fp32")
        assert res.converged
        assert "mCholeskyQR2[fp32]" in res.qr_variants
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
            default_config(4),
            execution=ExecutionConfig(filter_dtype="fp32"))
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
        assert dtype_token(np.complex64) == "fp32"

    def test_rate_factor_resolution_order(self):
        dev = DeviceSpec(
            name="x", gemm_rate=1.0, level3_rate=1.0, factor_rate=1.0,
            geqrf_rate=1.0, blas1_bandwidth=1.0, launch_overhead=0.0,
            eff_half_flops=1.0, memory_bytes=1,
            rate_table=(("fp32", 1.5),),
        )
        # fp64 is pinned at 1.0 and never read from the table
        assert dtype_rate_factor(np.float64, dev) == 1.0
        assert dtype_rate_factor(np.complex128, dev) == 1.0
        # the device table wins where it has an entry...
        assert dtype_rate_factor(np.float32, dev) == 1.5
        # ...the default fills in otherwise
        assert dtype_rate_factor(
            np.float32, dataclasses.replace(dev, rate_table=())) == 2.0
        assert dtype_rate_factor(np.complex64, None) == 2.0

    def test_fp32_work_set_adds_its_own_footprint(self):
        base = chase_new_scheme_bytes(1024, 64, 2, 2)
        w32 = chase_new_scheme_bytes(1024, 64, 2, 2, work_dtype=np.float32)
        # narrow H block + demoted input and C ping-pong pair + B pair
        welems = 1024 * 1024 / 4 + 3 * 1024 * 64 / 2 + 2 * 1024 * 64 / 2
        assert w32 - base == welems * 4
        assert chase_new_scheme_bytes(
            1024, 64, 2, 2, work_dtype=np.float64) == base
