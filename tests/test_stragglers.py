"""Straggler (load-imbalance) simulation tests.

A single slow rank delays every collective it participates in — the
barrier semantics of the simulated communicators turn one rank's
slowdown into a whole-run slowdown, exactly as on a real machine.  This
is a fidelity check of the runtime's parallel-time model and a tool for
load-imbalance studies.
"""

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver, ConvergenceTrace
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.runtime import (
    CommBackend, Communicator, CostCategory, VirtualCluster)
from tests.conftest import make_grid


def _phantom_run(slowdowns: dict[int, float] | None = None):
    g = make_grid(4, phantom=True)
    for rid, f in (slowdowns or {}).items():
        g.cluster.ranks[rid].slowdown = f
    Hd = DistributedHermitian.phantom(g, 20_000, np.float64)
    s = ChaseSolver(g, Hd, ChaseConfig(nev=800, nex=200, deg=20))
    res = s.solve_phantom(ConvergenceTrace.fixed(1, 1000, deg=20))
    return res, g


class TestStragglers:
    def test_nominal_vs_straggler_makespan(self):
        base, _ = _phantom_run()
        slow, _ = _phantom_run({2: 2.0})
        # compute dominates this workload: one 2x rank nearly doubles the run
        assert slow.makespan > base.makespan * 1.5

    def test_straggler_delay_propagates_to_all_ranks(self):
        _res, g = _phantom_run({0: 3.0})
        clocks = [r.clock.now for r in g.ranks]
        # every rank finishes at (nearly) the straggler's pace: the fast
        # ranks are barrier-coupled to it through the filter allreduces
        assert max(clocks) / min(clocks) < 1.05

    def test_fast_ranks_accumulate_idle_not_compute(self):
        _res, g = _phantom_run({0: 3.0})
        tr = g.cluster.tracer
        def compute_of(rid):
            return sum(
                tr.rank_total(rid, ph, CostCategory.COMPUTE)
                for ph in tr.phases()
            )
        # the straggler's charged compute is ~3x the others'
        assert compute_of(0) > 2.5 * compute_of(1)
        # but its wall clock matches (the others wait at the barriers)
        assert g.cluster.ranks[0].clock.now == pytest.approx(
            g.cluster.ranks[1].clock.now, rel=0.05
        )

    def test_numeric_results_unaffected(self, rng):
        """Slowdown changes time, never values."""
        H = uniform_matrix(120, rng=rng)
        cfg = ChaseConfig(nev=6, nex=4)
        V0 = np.random.default_rng(8).standard_normal((120, 10))
        g1 = make_grid(4)
        r1 = ChaseSolver(
            g1, DistributedHermitian.from_dense(g1, H), cfg
        ).solve(V0=V0, rng=np.random.default_rng(1))
        g2 = make_grid(4)
        g2.cluster.ranks[3].slowdown = 4.0
        r2 = ChaseSolver(
            g2, DistributedHermitian.from_dense(g2, H), cfg
        ).solve(V0=V0, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)
        assert r2.makespan > r1.makespan

    def test_mild_slowdown_mild_impact(self):
        base, _ = _phantom_run()
        slow, _ = _phantom_run({1: 1.1})
        assert slow.makespan < base.makespan * 1.25


class TestStragglerPipeline:
    """Stragglers composed with a nonblocking collective (the kept
    ``Communicator.iallreduce`` API, DESIGN.md §5d).

    A slow rank adds *compute*; with full overlap efficiency the extra
    compute hides more of the in-flight collective — the delay is
    absorbed up to the modeled slack (collective duration minus the
    compute already covering it), and serializes 1:1 beyond it."""

    def _delayed_allreduce(self, extra: float):
        """Issue one nonblocking allreduce, overlap `work` of compute on
        every rank plus `extra` on rank 0, then wait.  Returns
        (makespan, collective duration, per-rank compute)."""
        cl = VirtualCluster(4, backend=CommBackend.NCCL, ranks_per_node=4)
        comm = Communicator(cl.ranks)
        req = comm.iallreduce([np.ones((256, 256)) for _ in range(4)])
        d = req.duration
        work = 0.25 * d  # leaves slack = d - work before serialization
        for r in cl.ranks:
            r.charge_compute(work)
        cl.ranks[0].charge_compute(extra)
        req.wait()
        return max(r.clock.now for r in cl.ranks), d, work

    def test_delay_absorbed_up_to_slack(self):
        mk0, d, work = self._delayed_allreduce(0.0)
        assert mk0 == pytest.approx(d)  # comm is the critical path
        slack = d - work
        mk_in, *_ = self._delayed_allreduce(0.5 * slack)
        assert mk_in == pytest.approx(d)  # fully absorbed
        mk_edge, *_ = self._delayed_allreduce(slack)
        assert mk_edge == pytest.approx(d)  # boundary: still absorbed

    def test_delay_serializes_beyond_slack(self):
        _mk, d, work = self._delayed_allreduce(0.0)
        slack = d - work
        for beyond in (0.5 * slack, 2.0 * slack):
            mk, *_ = self._delayed_allreduce(slack + beyond)
            # past the slack the makespan grows 1:1 with the delay
            assert mk == pytest.approx(d + beyond)
