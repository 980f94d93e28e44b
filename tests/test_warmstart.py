"""Warm-start cache invariants (DESIGN.md §5i).

The load-bearing guarantees: a warm-started service solve is
*bit-identical* to a directly-seeded :class:`~repro.core.ChaseSolver`
(on every execution tier), a warm hit never costs more iterations than
its cold anchor, eviction respects the byte budget, and a corrupted or
mismatched cache entry is a typed miss that can cost iterations but can
never produce a wrong answer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ChaseConfig, ChaseSolver
from repro.core.lanczos import SpectralBounds
from repro.distributed import DistributedHermitian
from repro.perfmodel.autotune import applied, default_config
from repro.runtime import CommBackend
from repro.service import (
    EigenService,
    JobState,
    SolveJob,
    WarmStartCache,
    WarmStartMiss,
    degree_hint,
    scf_sequence,
)

_settings = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_BOUNDS = SpectralBounds(3.0, -1.0, 1.0)


def _basis(N, ne, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, ne))
    if np.dtype(dtype).kind == "c":
        X = X + 1j * rng.standard_normal((N, ne))
    return np.linalg.qr(X.astype(dtype))[0]


class TestCacheMechanics:
    def test_roundtrip_and_lru_recency(self):
        one = _basis(32, 8).nbytes
        cache = WarmStartCache(max_bytes=2 * one)
        cache.put("a", step=0, basis=_basis(32, 8, 1), bounds=_BOUNDS)
        cache.put("b", step=0, basis=_basis(32, 8, 2), bounds=_BOUNDS)
        hit, miss = cache.get("a", 32, 8, np.float64)  # refresh a's recency
        assert hit is not None and miss is None
        cache.put("c", step=0, basis=_basis(32, 8, 3), bounds=_BOUNDS)
        assert "a" in cache and "c" in cache
        assert "b" not in cache  # b was least-recently used
        assert cache.evictions == 1

    def test_oversize_payload_rejected_outright(self):
        cache = WarmStartCache(max_bytes=100)
        assert not cache.put("a", step=0, basis=_basis(64, 16), bounds=_BOUNDS)
        assert len(cache) == 0

    @_settings
    @given(sizes=st.lists(st.tuples(st.integers(8, 64), st.integers(2, 8)),
                          min_size=1, max_size=10))
    def test_eviction_respects_byte_budget(self, sizes):
        budget = 20_000
        cache = WarmStartCache(max_bytes=budget)
        for i, (N, ne) in enumerate(sizes):
            cache.put(f"s{i}", step=0, basis=_basis(N, min(ne, N), i),
                      bounds=_BOUNDS)
            assert cache.nbytes <= budget

    def test_typed_misses(self):
        cache = WarmStartCache()
        assert cache.get("nope", 32, 8, np.float64) == \
            (None, WarmStartMiss.ABSENT)
        cache.put("dim", step=0, basis=_basis(32, 8), bounds=_BOUNDS)
        assert cache.get("dim", 48, 8, np.float64)[1] is \
            WarmStartMiss.DIMENSION
        assert "dim" not in cache  # mismatches are evicted
        cache.put("dt", step=0, basis=_basis(32, 8), bounds=_BOUNDS)
        assert cache.get("dt", 32, 8, np.complex128)[1] is WarmStartMiss.DTYPE
        cache.put("narrow", step=0, basis=_basis(32, 8).astype(np.float32),
                  bounds=_BOUNDS)
        assert cache.get("narrow", 32, 8, np.float64)[1] is \
            WarmStartMiss.DTYPE
        cache.put("bad", step=0, basis=_basis(32, 8), bounds=_BOUNDS)
        cache._entries["bad"].basis[3, 3] += 1e-9  # bit-rot
        assert cache.get("bad", 32, 8, np.float64)[1] is WarmStartMiss.CORRUPT
        assert "bad" not in cache

    @_settings
    @given(degs=st.lists(st.integers(2, 60), min_size=1, max_size=20),
           deg=st.integers(1, 18).map(lambda k: 2 * k),
           extra=st.integers(0, 10))
    def test_degree_hint_clamped_and_even(self, degs, deg, extra):
        max_deg = deg + 2 * extra
        hint = degree_hint(np.array(degs), deg, max_deg)
        assert deg <= hint <= max(deg, max_deg)
        assert hint % 2 == 0


class TestWarmStartSemantics:
    def _run_sequence(self, hams, **svc_kw):
        svc_kw.setdefault("tune", "off")
        svc = EigenService(total_ranks=8, n_shards=2, **svc_kw)
        for k, H in enumerate(hams):
            svc.submit(SolveJob(H=H, nev=16, nex=8, sequence_id="seq",
                                step=k, seed=100 + k))
        return svc, svc.run()

    @pytest.mark.parametrize("transport", ["orchestrated", "mp"])
    def test_warm_solve_bit_identical_to_seeded_solver(self, transport):
        """A warm service solve equals a ChaseSolver seeded directly with
        the cached subspace/bounds/degree hint — bitwise, on every
        execution tier."""
        hams = scf_sequence(96, 2, seed=11)
        # run step 0 alone to capture the exact cache entry it leaves
        svc0 = EigenService(total_ranks=8, n_shards=2, tune="off",
                            transport=transport)
        svc0.submit(SolveJob(H=hams[0], nev=16, nex=8, sequence_id="seq",
                             step=0, seed=100))
        assert svc0.run()[0].converged
        entry, miss = svc0.cache.get("seq", 96, 24, np.float64)
        assert miss is None

        # the service's warm step 1 (fresh service, same deterministic
        # step 0, then the hit)
        _, results = self._run_sequence(hams, transport=transport)
        warm = results[1]
        assert warm.warm_hit and warm.converged

        # directly-seeded solver: same shard size, same config recipe
        cfg = ChaseConfig(nev=16, nex=8,
                          deg=degree_hint(entry.degrees, 20, 36))
        with applied(default_config(4), n_ranks=4, backend=CommBackend.NCCL,
                     transport=transport) as grid:
            Hd = DistributedHermitian.from_dense(grid, hams[1])
            direct = ChaseSolver(grid, Hd, cfg).solve(
                V0=entry.basis, rng=np.random.default_rng(101),
                return_vectors=True, bounds=entry.bounds,
            )
        assert direct.converged
        np.testing.assert_array_equal(warm.eigenvalues, direct.eigenvalues)
        np.testing.assert_array_equal(warm.residual_norms,
                                      direct.residual_norms)
        assert warm.iterations == direct.iterations
        assert warm.matvecs == direct.matvecs

    def test_warm_hit_never_more_iterations_than_cold(self):
        """On a stationary sequence (identical matrices) every warm step
        takes no more iterations than the cold anchor; on a drifting
        SCF-like sequence the same holds for these fixed seeds."""
        H = scf_sequence(120, 1, seed=4)[0]
        _, stationary = self._run_sequence([H, H, H])
        cold = stationary[0]
        for r in stationary[1:]:
            assert r.warm_hit
            assert r.iterations <= cold.iterations
            assert r.iterations_saved == cold.iterations - r.iterations
            assert r.filter_matvecs <= cold.filter_matvecs
        _, drifting = self._run_sequence(scf_sequence(120, 3, seed=4,
                                                      drift=1e-3))
        for r in drifting[1:]:
            assert r.warm_hit
            assert r.iterations <= drifting[0].iterations

    def test_corrupted_entry_is_typed_miss_never_wrong_answer(self):
        """A poisoned cache entry (bit-rot after sealing) downgrades the
        job to a cold solve — typed as miss:corrupt — and the answer is
        still correct."""
        H = scf_sequence(96, 1, seed=8)[0]
        svc = EigenService(total_ranks=8, n_shards=2, tune="off")
        svc.cache.put("seq", step=0, basis=_basis(96, 24, 1),
                      bounds=_BOUNDS, degrees=np.full(24, 20))
        svc.cache._entries["seq"].basis[0, 0] += 1e-12  # silent bit-rot
        svc.submit(SolveJob(H=H, nev=16, nex=8, sequence_id="seq",
                            step=1, seed=1))
        res = svc.run()[0]
        assert res.warmstart == "miss:corrupt"
        assert res.state is JobState.DONE and res.converged
        np.testing.assert_allclose(
            res.eigenvalues, np.linalg.eigvalsh(H)[:16], atol=1e-8
        )

    def test_dimension_mismatch_is_typed_miss_never_wrong_answer(self):
        """An entry cached for a different N (the sequence's problem was
        re-discretized) is a typed miss, and the solve is still right."""
        H = scf_sequence(96, 1, seed=9)[0]
        svc = EigenService(total_ranks=8, n_shards=2, tune="off")
        svc.cache.put("seq", step=0, basis=_basis(64, 24, 1), bounds=_BOUNDS)
        svc.submit(SolveJob(H=H, nev=16, nex=8, sequence_id="seq",
                            step=1, seed=1))
        res = svc.run()[0]
        assert res.warmstart == "miss:dimension"
        assert res.converged
        np.testing.assert_allclose(
            res.eigenvalues, np.linalg.eigvalsh(H)[:16], atol=1e-8
        )

    def test_warm_sequence_saves_filter_matvecs(self):
        """A 4-step drifting SCF sequence on one 8-rank shard (the 2x4
        NCCL grid) spends >= 1.3x fewer Chebyshev-filter MatVecs warm
        than cold; MatVec counts are exact, so the bound is host-free."""
        hams = scf_sequence(280, 4, seed=13, drift=1e-3)

        def total_filter_matvecs(warm):
            svc = EigenService(total_ranks=8, n_shards=1, tune="off",
                               warmstart=warm)
            for k, H in enumerate(hams):
                svc.submit(SolveJob(H=H, nev=36, nex=18, sequence_id="scf",
                                    step=k, seed=50 + k))
            results = svc.run()
            assert all(r.converged for r in results)
            return sum(r.filter_matvecs for r in results)

        assert total_filter_matvecs(False) / total_filter_matvecs(True) >= 1.3

    def test_no_warmstart_flag_goes_cold(self):
        hams = scf_sequence(96, 2, seed=2)
        _, results = self._run_sequence(hams, warmstart=False)
        assert all(r.warmstart == "cold" for r in results)
        assert all(r.converged for r in results)
