"""Grouped collectives charged from stored plans, HEMM applies charged as
recorded programs and redistributions charged from their signature
(DESIGN.md §5j, §5e).

A plan or a program is computed once per value key and then only
charged; these tests hold what it charges to an independent reference:
CommStats columns to a per-communicator account built from
``collective_cost`` in call order, a runner run to sequential adds, a
replayed program to the solve that recorded it (with and without
faults), and a phantom redistribution to a numeric one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ChaseConfig, ChaseSolver
from repro.arrays import PhantomArray
from repro.core.lanczos import SpectralBounds
from repro.distributed import (
    BlockMap1D,
    DistributedHermitian,
    DistributedMultiVector,
    Operand,
    redistribute_b_to_c,
    redistribute_c_to_b,
)
from repro.perfmodel.collectives import collective_cost
from repro.runtime import CommBackend, CostCategory, Grid2D, Timeline, VirtualCluster
from repro.runtime.cluster import CHARGE_STORE
from repro.runtime.faults import FaultEvent, FaultKind, FaultPlan
from tests.test_model_fingerprint import _trace

_BACKENDS = (CommBackend.NCCL, CommBackend.MPI_STAGED)


# ------------------------------------------------ CommStats columns vs a reference
def _account(comm, op: str, nbytes: float, messages: int, ref: dict) -> None:
    """What one collective of ``nbytes`` adds to ``comm``'s counters."""
    ch = collective_cost(comm.model, op, nbytes, comm.size, comm.topology,
                         comm.algo)
    c = ref.setdefault(id(comm), [0, 0, 0.0, 0, 0, 0.0, 0.0])
    for k, v in enumerate((1, messages, nbytes * comm.size,
                           ch.intra_messages, ch.inter_messages,
                           ch.intra_bytes, ch.inter_bytes)):
        c[k] += v


_CALL = st.tuples(
    st.sampled_from(["allreduce", "bcast"]),
    st.sampled_from(["row", "col"]),
    st.booleans(),                    # grouped, or one communicator's call
    st.lists(st.integers(0, 40), min_size=12, max_size=12),  # rows per member
    st.integers(1, 9),                # columns
    st.integers(0, 11),               # the member / root index
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape=st.sampled_from([(2, 3), (12, 12)]),
       backend=st.sampled_from(_BACKENDS),
       calls=st.lists(_CALL, min_size=1, max_size=8))
def test_stats_columns_match_a_per_communicator_reference(shape, backend,
                                                          calls):
    """Grouped and single-communicator allreduce / bcast calls of mixed
    payloads leave every CommStats tuple (with levels) ``==`` a
    per-communicator account of the same calls in call order."""
    p, q = shape
    grid = Grid2D(VirtualCluster(p * q, backend=backend, ranks_per_node=4,
                                 phantom=True), p, q)
    ref: dict = {}
    for op, axis_name, grouped, rows, cols, k in calls:
        axis = grid.row_comms if axis_name == "row" else grid.col_comms
        n, size = len(axis), axis.size
        proxies = [np.zeros((rows[m], cols), np.complex128)
                   for m in range(n)]
        messages = (2 if op == "allreduce" else 1) * math.ceil(math.log2(size))
        members = range(n) if grouped else [k % n]
        if grouped and op == "allreduce":
            axis.allreduce([[b] * size for b in proxies])
        elif grouped:
            axis.bcast([[b] * size for b in proxies], k % size)
        elif op == "allreduce":
            axis[k % n].allreduce([proxies[k % n]] * size)
        else:
            axis[k % n].bcast([proxies[k % n]] * size, k % size)
        for m in members if size > 1 else ():
            _account(axis[m], op, float(proxies[m].nbytes), messages, ref)
    for comm in (*grid.row_comms, *grid.col_comms):
        c = ref.get(id(comm), [0, 0, 0.0, 0, 0, 0.0, 0.0])
        assert comm.stats.as_tuple() == tuple(c[:3])
        assert comm.stats.levels_tuple() == tuple(c[3:])
        assert all(type(v) is int for v in (*comm.stats.as_tuple()[:2],
                                            *comm.stats.levels_tuple()[:2]))


# --------------------------------------------------- a run is sequential adds
@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 40), n_ranks=st.integers(1, 300),
       n_classes=st.integers(1, 5), listen=st.booleans(),
       category=st.sampled_from([CostCategory.COMPUTE, CostCategory.COMM]))
def test_a_run_is_its_steps_added_in_order(data, k, n_ranks, n_classes,
                                           listen, category):
    """One :meth:`VirtualCluster.run` of ``k`` steps leaves every clock
    and tracer cell, and tells listeners, exactly what ``k`` sequential
    scalar adds of each rank's charge (times its slowdown, for COMPUTE)
    give, for step magnitudes from 1e-9 to 10."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    cluster = VirtualCluster(n_ranks, phantom=True)
    cluster.slowdowns[:] = rng.uniform(1.0, 3.0, n_ranks)
    start = rng.uniform(0.0, 5.0, n_ranks)
    cluster.clocks[:] = start
    table = tuple(tuple(float(10.0 ** e) for e in rng.uniform(-9, 1, n_classes))
                  + (0.0,) for _ in range(k))
    slots = rng.integers(0, n_classes + 1, n_ranks)
    charged = tuple(tuple(int(r) for r in np.flatnonzero(slots < n_classes))
                    for _ in range(k))
    told = []
    if listen:
        cluster.charge_listeners.append(
            lambda ids, cat, starts, ends: told.append((ids, starts, ends)))
    cluster.run(((category, table, slots, charged),))

    clocks, row, expect_told = start.tolist(), [0.0] * n_ranks, []
    for s in range(k):
        before = list(clocks)
        for r in range(n_ranks):
            dt = table[s][slots[r]]
            if category is CostCategory.COMPUTE:
                dt = dt * float(cluster.slowdowns[r])
            clocks[r] = clocks[r] + dt
            row[r] = row[r] + dt
        ids = charged[s]
        expect_told.append((ids, [before[r] for r in ids],
                            [clocks[r] for r in ids]))
    assert cluster.clocks.tolist() == clocks
    assert cluster.tracer.row(category).tolist() == row
    assert told == (expect_told if listen else [])


# ------------------------------------------- a replayed program is its recording
def _filter_window(backend) -> tuple[float, float]:
    """The first Filter phase's span of a fault-free replay."""
    events = _solve(VirtualCluster(12, backend=backend, phantom=True))["events"]
    first = [e for e in events if e[1] == "Filter"][:200]
    return min(e[3] for e in first), max(e[4] for e in first)


def _solve(cluster) -> dict:
    timeline = Timeline.attach(cluster)
    grid = Grid2D(cluster, 3, 4)
    H = DistributedHermitian.phantom(grid, 1001, np.complex128)
    ChaseSolver(grid, H, ChaseConfig(nev=60, nex=20, deg=20)).solve_phantom(
        _trace(80), bounds=SpectralBounds(3.0, -1.0, 1.0),
        include_lanczos=True)
    return {
        "clocks": cluster.clocks.tobytes(),
        "tracer": {ph: rows.tobytes()
                   for ph, rows in cluster.tracer._rows.items()},
        "comm_stats": grid.comm_stats(),
        "comm_stats_levels": grid.comm_stats_levels(),
        "events": [(e.rank_id, e.phase, e.category, e.start, e.end)
                   for e in timeline.events],
        "faults": list(cluster.faults.log) if cluster.faults else None,
    }


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("backend", _BACKENDS, ids=["nccl", "staged"])
def test_replayed_program_matches_its_recording(monkeypatch, backend, faulty):
    """From a cleared store, a phantom solve records every HEMM program
    and collective plan; the same solve on a fresh grid replays them.
    Clocks, tracer rows, CommStats with levels and the Timeline's events
    are bit-equal — also with a transient and a link slowdown firing on
    HEMM reductions inside the replayed filter."""
    plan = None
    if faulty:
        t0, t1 = _filter_window(backend)
        plan = FaultPlan((
            FaultEvent(FaultKind.COLLECTIVE_TRANSIENT, rank=5,
                       time=t0 + 0.3 * (t1 - t0), attempts=2),
            FaultEvent(FaultKind.LINK_SLOWDOWN, rank=7,
                       time=t0 + 0.5 * (t1 - t0), factor=3.0,
                       duration=0.3 * (t1 - t0))))
    from repro.runtime import communicator

    hooked = []
    entry = communicator.Communicator._fault_entry

    def fault_entry(self, op):
        if self.cluster.faults is None:
            return entry(self, op)
        log = len(self.cluster.faults.log)
        factor = entry(self, op)
        if factor > 1.0 or len(self.cluster.faults.log) > log:
            hooked.append((op, self.cluster.tracer.current_phase))
        return factor
    monkeypatch.setattr(communicator.Communicator, "_fault_entry", fault_entry)

    def solve():
        cluster = VirtualCluster(12, backend=backend, phantom=True)
        if plan is not None:
            cluster.attach_faults(plan)
        return _solve(cluster)

    CHARGE_STORE.clear()
    recorded = solve()
    stored = len(CHARGE_STORE)
    hooked_recording, hooked[:] = list(hooked), []
    assert solve() == recorded
    assert len(CHARGE_STORE) == stored  # the second solve recorded nothing
    assert hooked == hooked_recording
    if faulty:
        assert ("allreduce", "Filter") in hooked
        assert any(entry[0] == "retry" for entry in recorded["faults"])


# ------------------------------------------------ redistribution: numeric == phantom
@pytest.mark.parametrize("backend", _BACKENDS, ids=["nccl", "staged"])
@pytest.mark.parametrize("N", [45, 2], ids=["ragged", "empty_part"])
@pytest.mark.parametrize("p,q", [(2, 2), (2, 3)])
@pytest.mark.parametrize("direction", ["c_to_b", "b_to_c"])
def test_redistribution_charges_numeric_as_phantom(direction, p, q, N,
                                                   backend):
    """A numeric and a phantom redistribution between the same maps
    charge ``==`` clocks, tracer rows and CommStats with levels; the
    numeric one moves the data.  ``N = 45`` splits unevenly over two
    parts; ``N = 2`` leaves the third of three parts empty."""
    ne = 6
    V = np.random.default_rng(3).standard_normal((N, ne))
    src, dst = ("C", "B") if direction == "c_to_b" else ("B", "C")
    redistribute = redistribute_c_to_b if direction == "c_to_b" \
        else redistribute_b_to_c

    def run(phantom):
        grid = Grid2D(VirtualCluster(p * q, backend=backend,
                                     phantom=phantom), p, q)
        smap = BlockMap1D(N, p if src == "C" else q)
        dmap = BlockMap1D(N, p if dst == "C" else q)
        if phantom:
            X = Operand(src, ne, np.dtype(np.float64), smap)
            Y = Operand(dst, ne, np.dtype(np.float64), dmap)
        else:
            X = DistributedMultiVector.from_global(grid, V, smap, src)
            Y = DistributedMultiVector.zeros(grid, dmap, dst, ne, np.float64)
        redistribute(grid, X, Y, slice(1, 5))
        cluster = grid.cluster
        if not phantom:
            np.testing.assert_array_equal(Y.gather()[:, 1:5], V[:, 1:5])
        return (cluster.clocks.tobytes(),
                {ph: r.tobytes() for ph, r in cluster.tracer._rows.items()},
                grid.comm_stats(), grid.comm_stats_levels())

    assert run(False) == run(True)


def test_phantom_redistribution_builds_no_proxy(monkeypatch):
    """Once its rounds are stored, a phantom redistribution charges them
    and constructs no ``PhantomArray``."""
    grid = Grid2D(VirtualCluster(6, phantom=True), 2, 3)
    C = Operand("C", 40, np.dtype(np.complex128), BlockMap1D(300, 2))
    B = Operand("B", 40, np.dtype(np.complex128), BlockMap1D(300, 3))
    redistribute_c_to_b(grid, C, B)  # stores the rounds
    redistribute_b_to_c(grid, B, C)
    built = []
    post = PhantomArray.__post_init__
    monkeypatch.setattr(PhantomArray, "__post_init__", lambda s: (
        built.append(s), post(s))[-1])
    assert redistribute_c_to_b(grid, C, B) > 0
    assert redistribute_b_to_c(grid, B, C, slice(3, 17)) > 0
    assert built == []
