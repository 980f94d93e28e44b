"""Overlap invariants of the nonblocking/pipelined tier (DESIGN.md §5d).

Property tests pinning down the semantics of nonblocking collectives and
the chunked Chebyshev filter:

* pipelined numerics are **bit-identical** to blocking numerics, and the
  collective byte volume is exactly the blocking volume;
* no two COMPUTE intervals ever overlap on one rank — only communication
  may hide behind compute, never compute behind compute;
* exposed + hidden communication always equals the blocking-mode
  communication of the same collective sequence, and at overlap
  fraction 0 the pipelined schedule *is* the blocking schedule;
* the makespan is monotone non-increasing in the overlap fraction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChaseConfig, ChaseSolver, ConvergenceTrace
from repro.core.lanczos import SpectralBounds
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.runtime import (
    CommBackend,
    Communicator,
    CostCategory,
    ExecutionConfig,
    Timeline,
    VirtualCluster,
)
from tests.conftest import make_grid

_BACKENDS = [CommBackend.NCCL, CommBackend.MPI_STAGED]


def _config(pipeline, chunks) -> ExecutionConfig:
    return ExecutionConfig(pipeline_chunks=chunks if pipeline else 0)


def _solve(pipeline, *, chunks=4, overlap=None, backend=CommBackend.NCCL,
           n=120, n_ranks=4, timeline=False, **grid_kw):
    """One small distributed solve; returns (result, grid, timeline|None)."""
    rng = np.random.default_rng(7)
    H = uniform_matrix(n, rng=rng)
    g = make_grid(n_ranks, backend=backend, config=_config(pipeline, chunks),
                  **grid_kw)
    if overlap is not None:
        g.set_overlap_efficiency(overlap)
    tl = Timeline.attach(g.cluster) if timeline else None
    Hd = DistributedHermitian.from_dense(g, H)
    res = ChaseSolver(g, Hd, ChaseConfig(nev=6, nex=4)).solve(
        rng=np.random.default_rng(3)
    )
    if tl is not None:
        tl.detach()
    return res, g, tl


def _phantom_makespan(pipeline, *, overlap=None, chunks=4,
                      backend=CommBackend.NCCL):
    """Model-only 2x4-grid run (fast: no numerics)."""
    g = make_grid(8, backend=backend, ranks_per_node=4, phantom=True,
                  config=_config(pipeline, chunks))
    assert (g.p, g.q) == (2, 4)
    if overlap is not None:
        g.set_overlap_efficiency(overlap)
    Hd = DistributedHermitian.phantom(g, 20_000, np.float64)
    solver = ChaseSolver(g, Hd, ChaseConfig(nev=200, nex=100, deg=16))
    res = solver.solve_phantom(
        ConvergenceTrace.fixed(1, 300, deg=16),
        bounds=SpectralBounds(3.0, -1.0, 1.0),
    )
    return res, g


def _bytes(g):
    return sum(s[2] for s in g.comm_stats())


def _rank_comm(g, hidden):
    """Per-rank communication totals summed over phases."""
    tr = g.cluster.tracer
    cat = CostCategory.COMM_HIDDEN if hidden else CostCategory.COMM
    return [
        sum(tr.rank_total(r.rank_id, ph, cat) for ph in tr.phases())
        for r in g.ranks
    ]


class TestBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        chunks=st.integers(min_value=2, max_value=6),
        backend=st.sampled_from(_BACKENDS),
    )
    def test_pipelined_numerics_and_bytes_match_blocking(self, chunks, backend):
        blk, gb, _ = _solve(False, backend=backend)
        pipe, gp, _ = _solve(True, chunks=chunks, backend=backend)
        np.testing.assert_array_equal(blk.eigenvalues, pipe.eigenvalues)
        assert _bytes(gb) == _bytes(gp)

    def test_chunked_reduction_same_bits_as_full_width(self):
        """Slice-wise summation is elementwise: identical bits per chunk."""
        rng = np.random.default_rng(0)
        full = [rng.standard_normal((6, 10)) for _ in range(3)]
        sliced = [b.copy() for b in full]
        acc = full[0].copy()
        for b in full[1:]:
            acc += b
        accs = sliced[0].copy()
        for sl in (slice(0, 4), slice(4, 10)):
            for b in sliced[1:]:
                accs[:, sl] += b[:, sl]
        np.testing.assert_array_equal(acc, accs)


class TestComputeNeverOverlaps:
    @settings(max_examples=4, deadline=None)
    @given(chunks=st.integers(min_value=2, max_value=5))
    def test_no_two_compute_intervals_overlap_per_rank(self, chunks):
        _res, g, tl = _solve(True, chunks=chunks, timeline=True)
        for r in g.ranks:
            ivals = sorted(
                (e.start, e.end)
                for e in tl.rank_events(r.rank_id)
                if e.category is CostCategory.COMPUTE
            )
            assert ivals, "expected compute events"
            for (_, e0), (s1, _) in zip(ivals, ivals[1:]):
                assert e0 <= s1 + 1e-12

    def test_hidden_intervals_lie_behind_compute_window(self):
        """Hidden comm starts at the collective's entry, before the wait."""
        _res, g, tl = _solve(True, timeline=True)
        hidden = [e for e in tl.events
                  if e.category is CostCategory.COMM_HIDDEN]
        assert hidden, "pipelined NCCL run must hide some communication"
        for e in hidden:
            later = [x for x in tl.rank_events(e.rank_id)
                     if x.category is CostCategory.COMPUTE
                     and x.start < e.start < x.end + 1e-12]
            # each hidden interval begins inside (or at the edge of) a
            # compute interval of its own rank — that is what it hid behind
            assert later or any(
                x.end <= e.start + 1e-12
                for x in tl.rank_events(e.rank_id)
            )


class TestConservation:
    @settings(max_examples=6, deadline=None)
    @given(
        overlap=st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
        backend=st.sampled_from(_BACKENDS),
    )
    def test_hidden_plus_exposed_equals_blocking_comm(self, overlap, backend):
        _blk, gb, _ = _solve(False, backend=backend)
        _pipe, gp, _ = _solve(True, overlap=overlap, backend=backend)
        blocking = _rank_comm(gb, hidden=False)
        exposed = _rank_comm(gp, hidden=False)
        hidden = _rank_comm(gp, hidden=True)
        for b, e, h in zip(blocking, exposed, hidden):
            assert e + h == pytest.approx(b, rel=1e-9)

    def test_zero_overlap_is_exactly_blocking(self):
        blk, gb, _ = _solve(False)
        pipe, gp, _ = _solve(True, overlap=0.0)
        assert _rank_comm(gp, hidden=True) == [0.0] * len(gp.ranks)
        assert pipe.makespan == pytest.approx(blk.makespan, rel=1e-12)
        np.testing.assert_array_equal(blk.eigenvalues, pipe.eigenvalues)

    def test_phase_breakdown_reports_hidden_separately(self):
        blk, gb, _ = _solve(False)
        pipe, gp, _ = _solve(True)
        b = gb.cluster.tracer.breakdown("Filter")
        p = gp.cluster.tracer.breakdown("Filter")
        assert b.comm_hidden == 0.0
        assert p.comm_hidden > 0.0
        assert p.comm_total == pytest.approx(b.comm, rel=1e-9)
        assert p.total == p.compute + p.comm + p.datamove  # hidden excluded


class TestMonotonicity:
    @settings(max_examples=5, deadline=None)
    @given(
        fs=st.lists(
            st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=4,
        )
    )
    def test_makespan_monotone_nonincreasing_in_overlap(self, fs):
        mks = [
            _phantom_makespan(True, overlap=f)[0].makespan
            for f in sorted(fs)
        ]
        for a, b in zip(mks, mks[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_filter_phase_improves_on_2x4_grid(self, backend):
        """Acceptance: any overlap fraction > 0 beats blocking."""
        blk, gb = _phantom_makespan(False, backend=backend)
        for f in (0.25, 1.0):
            pipe, gp = _phantom_makespan(True, overlap=f, backend=backend)
            fb = gb.cluster.tracer.breakdown("Filter")
            fp = gp.cluster.tracer.breakdown("Filter")
            assert fp.total < fb.total
            assert pipe.makespan < blk.makespan


class TestCollectiveRequest:
    def _comm(self, n=4, backend=CommBackend.NCCL):
        cl = VirtualCluster(n, backend=backend, ranks_per_node=4)
        return Communicator(cl.ranks), cl

    def test_iallreduce_moves_same_values_as_blocking(self):
        comm, _ = self._comm(3)
        blocking = [np.full((2, 3), float(i)) for i in range(3)]
        comm.allreduce(blocking)
        comm2, _ = self._comm(3)
        nb = [np.full((2, 3), float(i)) for i in range(3)]
        req = comm2.iallreduce(nb)
        req.wait()
        for a, b in zip(blocking, nb):
            np.testing.assert_array_equal(a, b)

    def test_immediate_wait_charges_exactly_like_blocking(self):
        comm, cl = self._comm()
        comm.allreduce([np.ones((8, 8)) for _ in range(4)])
        t_blocking = [r.clock.now for r in cl.ranks]
        comm2, cl2 = self._comm()
        comm2.iallreduce([np.ones((8, 8)) for _ in range(4)]).wait()
        t_nonblocking = [r.clock.now for r in cl2.ranks]
        assert t_blocking == t_nonblocking

    def test_wait_is_idempotent(self):
        comm, cl = self._comm()
        req = comm.iallreduce([np.ones(4) for _ in range(4)])
        req.wait()
        clocks = [r.clock.now for r in cl.ranks]
        req.wait()  # must not double-charge or re-reduce
        assert [r.clock.now for r in cl.ranks] == clocks
        assert req.complete

    def test_test_is_advisory_and_flips_after_enough_compute(self):
        comm, cl = self._comm()
        req = comm.iallreduce([np.ones((64, 64)) for _ in range(4)])
        assert not req.test()
        clocks = [r.clock.now for r in cl.ranks]
        assert [r.clock.now for r in cl.ranks] == clocks  # no charges
        for r in cl.ranks:
            r.charge_compute(req.duration + 1e-9)
        assert req.test()

    def test_size_one_request_is_born_complete(self):
        cl = VirtualCluster(1)
        comm = Communicator(cl.ranks)
        buf = np.full(3, 2.0)
        req = comm.iallreduce([buf])
        assert req.complete and req.test()
        req.wait()
        np.testing.assert_array_equal(buf, 2.0)
        assert cl.ranks[0].clock.now == 0.0

    def test_overlap_efficiency_validation(self):
        comm, _ = self._comm()
        with pytest.raises(ValueError):
            comm.set_overlap_efficiency(1.5)
        with pytest.raises(ValueError):
            comm.set_overlap_efficiency(-0.1)
        old = comm.set_overlap_efficiency(0.5)
        assert comm.overlap_efficiency == 0.5
        comm.set_overlap_efficiency(old)

    def test_backend_default_overlap(self):
        nccl, _ = self._comm(backend=CommBackend.NCCL)
        std, _ = self._comm(backend=CommBackend.MPI_STAGED)
        assert nccl.overlap_efficiency == 1.0
        assert std.overlap_efficiency < nccl.overlap_efficiency


class TestToggles:
    def test_chunks_must_be_at_least_two(self):
        assert ExecutionConfig(pipeline_chunks=0).pipeline_chunks == 0
        assert ExecutionConfig(pipeline_chunks=2).pipeline_chunks == 2
        for bad in (1, -3, 2.0, True, "4"):
            with pytest.raises(ValueError, match="pipeline_chunks"):
                ExecutionConfig(pipeline_chunks=bad)

    def test_env_toggle(self):
        """The CLI's environment defaults; malformed values are loud."""
        from repro.cli import _env_defaults

        env = _env_defaults({"REPRO_FILTER_PIPELINE": "1",
                             "REPRO_FILTER_CHUNKS": "6"})
        assert env["pipeline_filter"] and env["pipeline_chunks"] == 6
        env = _env_defaults({})
        assert not env["pipeline_filter"] and env["pipeline_chunks"] == 4
        with pytest.raises(ValueError, match="REPRO_FILTER_CHUNKS.*>= 2"):
            _env_defaults({"REPRO_FILTER_CHUNKS": "bogus"})
