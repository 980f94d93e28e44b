"""Mixed-precision filter + compressed collectives (DESIGN.md §5g).

Four guarantees pinned here:

* the **fp64 configuration is bit-identical to the seed path** on every
  execution tier — the precision layer is a strict no-op until opted
  into (eigenpairs, CommStats, per-phase breakdowns, makespan);
* **promotion is monotone**: the sticky fp64 fallback is driven by a
  tolerance-independent accuracy floor, so tightening ``tol`` can only
  append fp64 iterations, never convert one back to fp32;
* **compressed allreduces conserve bytes honestly**: wire bytes scale
  exactly with the payload width, the per-level (intra/inter) split
  always sums to the byte total, and the chunked pipelined filter moves
  exactly the blocking volume;
* **chaos interplay**: fault plans with fp32 filtering and compression
  armed never return silently wrong eigenpairs — a solve either matches
  the dense oracle at fp64 tolerance or raises.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChaseConfig, ChaseSolver, PrecisionPolicy, chase_serial
from repro.core.precision import FP32_EPS, narrow_dtype, resolve_work_dtype
from repro.distributed import (
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.distributed.hemm import DistributedHemm
from repro.runtime import (
    CommBackend,
    ExecutionConfig,
    FaultPlan,
    Grid2D,
    VirtualCluster,
)
from repro.runtime.faults import FaultError

N, NEV, NEX = 160, 18, 12


def scenario_matrix(dtype=np.float64, seed=2024):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    if np.dtype(dtype).kind == "c":
        A = A + 1j * rng.standard_normal((N, N))
    return ((A + A.conj().T) / 2).astype(dtype)


def run_scenario(backend=CommBackend.NCCL, dtype=np.float64, tol=1e-10,
                 p=2, q=4, solver_kw=None, seed=2718, **execution):
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
                         ChaseConfig(nev=NEV, nex=NEX, tol=tol, deg=10),
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
#: (dedup, fused, pipelined) — one representative per tier
TIERS = [
    (False, False, False),
    (True, False, False),
    (True, True, False),
    (True, False, True),
]
TIER_IDS = ["seed", "dedup", "fused", "pipelined"]


def _run_tier(dedup, fused, pipelined, **kw):
    return run_scenario(
        numeric_dedup=dedup, hemm_fusion=fused,
        pipeline_chunks=3 if pipelined else 0, **kw)


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_fp64_config_bit_identical_on_every_tier(tier):
    """Explicit fp64/none fields must equal the default config
    byte-for-byte: eigenpairs, comm stats (legacy and per-level),
    per-phase breakdowns, every rank clock."""
    r0, s0, t0, c0 = _run_tier(*tier)
    r1, s1, t1, c1 = _run_tier(*tier, filter_dtype="fp64",
                               comm_compress="none")
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
    res, _s, _t, _c = _run_tier(*tier, filter_dtype="fp32",
                                comm_compress="fp32")
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
    # half tiers resolve to a WorkPrecision: fp32 storage, 2-byte charge
    for token in ("fp16", "bf16"):
        wp = resolve_work_dtype(np.float64, token)
        assert wp.token == token
        assert wp.dtype == np.dtype(np.float32)
        assert wp.charge == token
    assert resolve_work_dtype(np.complex128, "bf16").dtype == \
        np.dtype(np.complex64)
    with pytest.raises(ValueError):
        resolve_work_dtype(np.float64, "fp8")


# ----------------------------------------------- compressed byte accounting
def _pipeline_bytes(x_dtype, payload, chunks=0):
    """Total allreduce bytes of one pipeline-eligible HEMM apply."""
    H = scenario_matrix()
    cluster = VirtualCluster(
        8, backend=CommBackend.NCCL,
        config=ExecutionConfig(comm_compress=payload, pipeline_chunks=chunks))
    grid = Grid2D(cluster, 2, 4)
    Hd = DistributedHermitian.from_dense(grid, H)
    hemm = DistributedHemm(Hd)
    rng = np.random.default_rng(5)
    X = DistributedMultiVector.from_global(
        grid, rng.standard_normal((N, 12)).astype(x_dtype), Hd.rowmap, "C"
    )
    hemm.apply(X, pipeline=True)
    total = 0.0
    levels_ok = True
    for comm in [grid.col_comm(j) for j in range(grid.q)] + \
                [grid.row_comm(i) for i in range(grid.p)]:
        s = comm.stats
        total += s.bytes_moved
        levels_ok &= np.isclose(s.intra_bytes + s.inter_bytes, s.bytes_moved)
    assert levels_ok, "per-level byte split must sum to bytes_moved"
    return total


def test_compressed_allreduce_byte_ratios_exact():
    b64 = _pipeline_bytes(np.float64, "none")
    b32 = _pipeline_bytes(np.float32, "none")
    b64_fp32 = _pipeline_bytes(np.float64, "fp32")
    b32_bf16 = _pipeline_bytes(np.float32, "bf16")
    # narrow buffers halve the wire; payload compression is exact too
    assert b32 == 0.5 * b64
    # fp64 X alone is not a narrow apply -> compression gated off
    assert b64_fp32 == b64
    assert b32_bf16 == 0.5 * b32 == 0.25 * b64


@pytest.mark.parametrize("payload", ["none", "bf16"])
def test_pipelined_chunks_conserve_compressed_bytes(payload):
    """Chunked nonblocking reductions must move exactly the blocking
    volume at every payload width."""
    blocking = _pipeline_bytes(np.float32, payload, chunks=0)
    chunked = _pipeline_bytes(np.float32, payload, chunks=3)
    assert chunked == pytest.approx(blocking, rel=0, abs=1e-6)


def test_compressed_solve_byte_reduction():
    """End-to-end: an fp32+compressed solve moves strictly fewer
    allreduce bytes than the fp64 baseline while still converging."""
    r64, s64, *_ = run_scenario()
    r32, s32, *_ = run_scenario(filter_dtype="fp32", comm_compress="bf16")
    assert r64.converged and r32.converged
    total64 = sum(t[2][2] for t in s64)
    total32 = sum(t[2][2] for t in s32)
    assert total32 < total64
    for _kind, _idx, legacy, levels in s32:
        assert levels[2] + levels[3] == pytest.approx(legacy[2])


def test_bf16_quantization_roundtrip():
    from repro.runtime.communicator import _bf16_trunc

    rng = np.random.default_rng(0)
    x = rng.standard_normal(257)
    t = _bf16_trunc(x)
    assert t.dtype == np.float32
    # idempotent (already on the bf16 lattice) and within bf16 precision
    # elementwise (truncation error < 2^-7 of each element's magnitude)
    np.testing.assert_array_equal(_bf16_trunc(t), t)
    assert np.all(np.abs(t - x) <= 2 ** -7 * np.abs(x) + 1e-12)


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
def test_chaos_compression_never_silently_wrong(seed):
    """Fault plans with mixed precision + compression armed: the solve
    either converges to the dense oracle at fp64 tolerance or raises a
    typed fault — silent corruption of the answer is impossible."""
    plan = FaultPlan.random(seed, 8, horizon=0.02, n_events=3)
    try:
        res, *_ = run_scenario(solver_kw=dict(faults=plan), seed=seed,
                               filter_dtype="fp32", comm_compress="fp32")
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
