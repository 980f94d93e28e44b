"""The process-wide charge store (DESIGN.md §5j, "One charge store per
process").

``Grid2D.replay`` step records and communicator cost tables live in one
value-keyed dict per process, shared by every grid, backend and service
job.  A record is a pure function of its key, so a replay must read the
same bits whether the store is cold or already filled by other work, and
no key may alias another grid's or machine's record.  Every case starts
from a cleared store.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver
from repro.arrays import PhantomArray
from repro.core.lanczos import SpectralBounds
from repro.distributed import DistributedHermitian
from repro.perfmodel.collectives import CollectiveCharge
from repro.perfmodel.machine import juwels_booster
from repro.runtime import CommBackend, Grid2D, VirtualCluster, cluster as cluster_mod
from repro.runtime.cluster import CHARGE_STORE
from repro.runtime.timeline import Timeline
from repro.service import EigenService, SolveJob, scf_sequence
from tests.test_model_fingerprint import _trace


@pytest.fixture(autouse=True)
def cold_store():
    CHARGE_STORE.clear()
    yield
    CHARGE_STORE.clear()


def _replay(cluster, *, N=1001, nev=60, nex=20, p=None, q=None) -> dict:
    """Every modeled output of a phantom replay on ``cluster``, with the
    Timeline's per-rank events."""
    timeline = Timeline.attach(cluster)
    grid = Grid2D(cluster, p, q)
    H = DistributedHermitian.phantom(grid, N, np.complex128)
    res = ChaseSolver(grid, H, ChaseConfig(nev=nev, nex=nex, deg=20)) \
        .solve_phantom(_trace(nev + nex), bounds=SpectralBounds(3.0, -1.0, 1.0),
                       include_lanczos=True)
    return {
        "makespan": res.makespan,
        "phases": {ph: dataclasses.astuple(pb) + (pb.total,)
                   for ph, pb in res.timings.items()},
        "tracer": {ph: rows.tobytes()
                   for ph, rows in cluster.tracer._rows.items()},
        "clocks": cluster.clocks.tobytes(),
        "comm_stats": grid.comm_stats(),
        "comm_stats_levels": grid.comm_stats_levels(),
        "events": [(e.rank_id, e.phase, e.category, e.start, e.end)
                   for e in timeline.events],
    }


def _cluster(backend=CommBackend.NCCL, n=12, **kw) -> VirtualCluster:
    return VirtualCluster(n, backend=backend, phantom=True, **kw)


def _records() -> list:
    """The stored step records: keys ``(token, memo)``, whose token is a
    bare ``object``."""
    return [v for k, v in CHARGE_STORE.items()
            if type(k) is tuple and type(k[0]) is object]


@pytest.mark.parametrize("backend,other", [
    (CommBackend.NCCL, CommBackend.MPI_STAGED),
    (CommBackend.MPI_STAGED, CommBackend.NCCL)])
def test_replay_is_bit_equal_cold_and_after_the_other_backend(backend, other):
    cold = _replay(_cluster(backend), p=3, q=4)
    CHARGE_STORE.clear()
    _replay(_cluster(other), p=3, q=4)
    assert _records()
    assert _replay(_cluster(backend), p=3, q=4) == cold


def test_second_backend_replay_records_nothing():
    """The claim behind ``phantom_strong``: its MPI_STAGED replay of the
    Fig. 3b trace re-uses every step record of its NCCL replay but the
    9 of the kernels the STD build runs on the host (the CholeskyQR
    family's and the residual norms'), and a third replay records
    nothing."""
    def replay(backend):
        _replay(VirtualCluster(144, backend=backend, ranks_per_node=4,
                               phantom=True),
                N=115_459, nev=1200, nex=400)
        return len(_records())

    assert replay(CommBackend.NCCL) == 288
    assert replay(CommBackend.MPI_STAGED) == 288 + 9
    assert replay(CommBackend.NCCL) == 288 + 9


def test_service_jobs_do_not_leak_through_the_store():
    """Two jobs of different N give the same makespan, CommStats and
    eigenvalues whichever runs first."""
    hams = {"a": scf_sequence(120, 1, seed=5)[0],
            "b": scf_sequence(96, 1, seed=6)[0]}

    def run(order):
        CHARGE_STORE.clear()
        svc = EigenService(total_ranks=4, n_shards=1, tune="off")
        for tenant in order:
            svc.submit(SolveJob(H=hams[tenant], nev=12, nex=6, seed=1,
                                tenant=tenant))
        return {r.tenant: r for r in svc.run()}

    ab, ba = run("ab"), run("ba")
    for tenant in "ab":
        x, y = ab[tenant], ba[tenant]
        assert x.converged and y.converged
        assert x.makespan == y.makespan
        assert x.comm_stats == y.comm_stats
        np.testing.assert_array_equal(x.eigenvalues, y.eigenvalues)


def test_machines_of_different_gemm_rate_do_not_collide():
    base = juwels_booster()
    fast = dataclasses.replace(
        base, gpu=dataclasses.replace(base.gpu,
                                      gemm_rate=2 * base.gpu.gemm_rate))
    cold = {}
    for machine in (base, fast):
        CHARGE_STORE.clear()
        cold[machine] = _replay(_cluster(machine=machine), p=3, q=4)
    assert cold[base]["makespan"] != cold[fast]["makespan"]
    CHARGE_STORE.clear()
    for machine in (base, fast):
        assert _replay(_cluster(machine=machine), p=3, q=4) == cold[machine]


def test_survivor_grid_does_not_alias_a_fresh_grid():
    """A 2 x 2 grid on ranks (0, 2, 3, 4) after rank 1 died and a fresh
    2 x 2 grid on ranks 0..3 have equal shapes and block maps; the
    Timeline shows which ranks each replay charged."""
    def survivor():
        return _replay(_cluster(n=5).shrink([1]), N=400, nev=24, nex=8)

    def fresh():
        return _replay(_cluster(n=4), N=400, nev=24, nex=8)

    cold = {}
    for grid in (survivor, fresh):
        CHARGE_STORE.clear()
        cold[grid] = grid()
    for first, second in ((survivor, fresh), (fresh, survivor)):
        CHARGE_STORE.clear()
        assert first() == cold[first]
        assert second() == cold[second]


def test_store_holds_only_values_derived_from_keys():
    _replay(_cluster(CommBackend.MPI_STAGED), p=3, q=4)
    records = _records()
    assert records
    for table, charged in records:  # a record is its charges, no result
        assert len(table) == len(charged)

    def leaves(value):
        if isinstance(value, (tuple, list)):
            for v in value:
                yield from leaves(v)
        elif isinstance(value, dict):
            for k, v in value.items():
                yield from leaves(k)
                yield from leaves(v)
        else:
            yield value

    allowed = (float, int, str, PhantomArray, CollectiveCharge, type(None))
    for value in CHARGE_STORE.values():
        for leaf in leaves(value):
            assert type(leaf) is object or isinstance(leaf, allowed), leaf


def test_capped_store_replays_bit_identically(monkeypatch):
    uncapped = _replay(_cluster(), p=3, q=4)
    CHARGE_STORE.clear()
    monkeypatch.setattr(cluster_mod, "CHARGE_STORE_CAP", 1)
    assert _replay(_cluster(), p=3, q=4) == uncapped
    assert len(CHARGE_STORE) <= 2
