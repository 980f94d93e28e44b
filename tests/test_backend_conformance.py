"""Conformance matrix for the pluggable execution backends (DESIGN.md §5h).

Every transport must reproduce the orchestrated oracle **exactly**:
bit-identical eigenpairs and residuals, and per-level CommStats whose
independently measured wire account matches the modeled charges field
for field (``assert_transport_parity`` runs inside every solve).  The
mp backend additionally proves its liveness contract: a killed worker
process surfaces as a typed ``TransportDeadRankError``, never a hang.
"""

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.runtime import (
    ExecutionConfig,
    FaultEvent,
    FaultKind,
    FaultPlan,
    Grid2D,
    TransportDeadRankError,
    TransportError,
    TransportParityError,
    VirtualCluster,
)
from repro.runtime.mp_backend import MpTransport, UniqueId
from repro.runtime.transport import (
    TRANSPORTS,
    create_transport,
    parse_transport,
    schedule_messages,
    transport_parity_report,
)

BACKENDS = ("mp",)


def _solve(backend, p=2, q=2, n=96, nev=8, nex=6, plan=None, deg=20,
           **execution):
    rng = np.random.default_rng(12345)
    H = uniform_matrix(n, rng=rng)
    with VirtualCluster(p * q, backend=backend,
                        config=ExecutionConfig(**execution)) as cluster:
        grid = Grid2D(cluster, p, q)
        if plan is not None:
            cluster.attach_faults(plan)
        Hd = DistributedHermitian.from_dense(grid, H)
        solver = ChaseSolver(grid, Hd,
                             ChaseConfig(nev=nev, nex=nex, deg=deg))
        res = solver.solve(rng=np.random.default_rng(7),
                           return_vectors=True)
        final = solver.grid
        return res, final.comm_stats(), final.comm_stats_levels()


class TestConformanceMatrix:
    """Small solves on every backend against the orchestrated oracle."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("p,q", [(2, 2), (1, 3)])
    def test_solve_bit_identical(self, backend, p, q):
        base, stats0, levels0 = _solve("orchestrated", p, q)
        res, stats, levels = _solve(backend, p, q)
        np.testing.assert_array_equal(res.eigenvalues, base.eigenvalues)
        np.testing.assert_array_equal(res.eigenvectors, base.eigenvectors)
        np.testing.assert_array_equal(res.residual_norms, base.residual_norms)
        assert stats == stats0
        assert levels == levels0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fp32_filter_parity(self, backend):
        """Single-precision panels cross the data plane too: an engaged
        fp32 filter (``deg=4`` opens the gate) must match the
        orchestrated run bit for bit, wire account included."""
        kw = dict(deg=4, filter_dtype="fp32")
        base, stats0, levels0 = _solve("orchestrated", **kw)
        res, stats, levels = _solve(backend, **kw)
        assert base.precision_log[0] == "fp32"
        np.testing.assert_array_equal(res.eigenvalues, base.eigenvalues)
        np.testing.assert_array_equal(res.residual_norms, base.residual_norms)
        assert stats == stats0
        assert levels == levels0

    def test_run_twice_identical(self):
        """The mp backend is deterministic across runs (the
        rank-ordered reduction contract, satellite of §5h)."""
        a = _solve("mp")
        b = _solve("mp")
        np.testing.assert_array_equal(a[0].eigenvalues, b[0].eigenvalues)
        np.testing.assert_array_equal(a[0].eigenvectors, b[0].eigenvectors)
        assert a[1] == b[1]


class TestTransportSurface:
    def test_parse_transport_env(self, monkeypatch):
        """The library ignores ``REPRO_BACKEND``; the CLI's env parser
        is the only reader."""
        from repro.cli import _env_defaults

        assert parse_transport("MP ") == "mp"
        monkeypatch.setenv("REPRO_BACKEND", "mp")
        assert parse_transport(None) == "orchestrated"
        assert VirtualCluster(2).transport.name == "orchestrated"
        assert _env_defaults()["transport"] == "mp"
        with pytest.raises(ValueError):
            parse_transport("smoke-signals")

    def test_removed_threads_token_is_an_unknown_backend(self, monkeypatch):
        """``threads`` has no alias: every surface that takes a backend
        token rejects it with its typed error naming what it accepts."""
        from repro.campaign import SpecError, spec_from_dict
        from repro.cli import _env_defaults

        with pytest.raises(ValueError, match=r"\('orchestrated', 'mp'\)"):
            parse_transport("threads")
        with pytest.raises(ValueError, match="'mpi-host', 'orchestrated', 'mp'"):
            VirtualCluster(2, backend="threads")
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        with pytest.raises(ValueError, match=r"REPRO_BACKEND.*'orchestrated', 'mp'"):
            _env_defaults()
        spec = spec_from_dict({"campaign": "x", "matrix": [
            {"name": "t", "set": {"kind": "solve", "n": 64, "nev": 4,
                                  "backend": "threads"}}]})
        with pytest.raises(SpecError, match="'mpi-host', 'orchestrated', 'mp'"):
            spec.expand()

    def test_schedule_messages(self):
        assert schedule_messages("allreduce", 1) == 0
        assert schedule_messages("allreduce", 4) == 4
        assert schedule_messages("bcast", 8) == 3
        assert schedule_messages("allgather", 5) == 4
        with pytest.raises(ValueError):
            schedule_messages("alltoall", 4)

    def test_cluster_backend_token_conflict(self):
        with pytest.raises(ValueError, match="conflicts"):
            VirtualCluster(2, backend="mp", transport="orchestrated")

    def test_create_transport_names(self):
        for name in TRANSPORTS:
            with create_transport(name, 2) as t:
                assert t.name == name

    def test_parity_detects_divergence(self):
        """A wire account that drifts from the model must raise."""
        cluster = VirtualCluster(4)
        grid = Grid2D(cluster, 2, 2)
        comm = grid.row_comm(0)
        comm.allreduce([np.ones(8) for _ in range(2)])
        assert transport_parity_report(grid) == []
        # tamper: pretend the data plane moved an extra collective
        comm.transport_group.record_wire("bcast", [np.ones(8)])
        report = transport_parity_report(grid)
        assert [label for label, *_ in report] == ["row0"]
        from repro.runtime.transport import assert_transport_parity

        with pytest.raises(TransportParityError):
            assert_transport_parity(grid)


class TestMpFaults:
    def test_killed_worker_is_typed_not_a_hang(self):
        t = MpTransport(2, timeout=20.0)
        try:
            g = t.group([0, 1])
            g.barrier_sync()  # spawns both workers
            t.worker(1).proc.kill()
            t.worker(1).proc.wait(timeout=5.0)
            with pytest.raises(TransportDeadRankError) as err:
                g.barrier_sync()
            assert err.value.ranks == [1]
            assert "rank(s) [1] died" in str(err.value)
            assert "killed by signal 9" in str(err.value)
        finally:
            t.close()

    def test_worker_error_surfaces_typed(self):
        t = MpTransport(1, timeout=20.0)
        try:
            with pytest.raises(TransportError, match="unknown command"):
                t.rpc(0, ("definitely-not-a-command",))
        finally:
            t.close()

    def test_worker_vocabulary_is_the_data_plane_only(self):
        """``mp`` is a collectives-only data plane: after a real solve
        every live worker still refuses the retired kernel-offload
        command — its vocabulary is ping/drop/reduce/fetch (+ exit)."""
        H = uniform_matrix(96, rng=np.random.default_rng(12345))
        with VirtualCluster(2, backend="mp") as cluster:
            grid = Grid2D(cluster, 2, 1)
            Hd = DistributedHermitian.from_dense(grid, H)
            res = ChaseSolver(grid, Hd, ChaseConfig(nev=8, nex=6)).solve(
                rng=np.random.default_rng(7))
            assert res.converged
            t = cluster.transport
            spawned = [w.rank for w in t._workers if w is not None]
            assert spawned == [0, 1]
            for rank in spawned:
                with pytest.raises(TransportError, match="unknown command"):
                    t.rpc(rank, ("calls", []))
                assert t.rpc(rank, ("ping",)) == rank  # still serving

    def test_closed_transport_refuses(self):
        t = MpTransport(1)
        t.close()
        t.close()  # idempotent
        with pytest.raises(TransportError):
            t.worker(0)

    def test_unique_id_namespacing(self):
        a, b = UniqueId(), UniqueId()
        assert a.token != b.token
        assert UniqueId("cafe").segment_name(1, 2) == "repro-cafe-r1g2"

    def test_rank_death_recovery_on_mp(self):
        """A modeled rank death mid-solve: the survivor grid keeps the
        same transport (stable lane ids) and the solve still converges
        with oracle parity (asserted inside solve)."""
        base, *_ = _solve("orchestrated")
        plan = FaultPlan(events=(
            FaultEvent(kind=FaultKind.RANK_DEATH, rank=3,
                       time=0.5 * base.makespan),
        ))
        res, *_ = _solve("mp", plan=plan)
        assert res.converged
        assert res.recoveries >= 1
