"""Grouped collectives: one call on all communicators of a grid axis.

``CommGroup.allreduce`` / ``.bcast`` (DESIGN.md §5j) must leave every
clock, tracer cell, CommStats counter, Timeline interval and fault-log
entry exactly where the explicit per-communicator loop leaves them.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.runtime import (
    CommBackend,
    CostCategory,
    ExecutionConfig,
    Grid2D,
    Timeline,
    VirtualCluster,
)
from repro.runtime.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RankDeathError,
)

P, Q = 3, 4


def _grid(backend, hook, slow):
    cluster = VirtualCluster(P * Q, backend=backend, ranks_per_node=4,
                             config=ExecutionConfig())
    grid = Grid2D(cluster, P, Q)
    if slow is not None:
        cluster.ranks[5].slowdown = slow
    timeline = Timeline.attach(cluster) if hook == "timeline" else None
    injector = None
    if hook == "faults":
        injector = cluster.attach_faults(FaultPlan((FaultEvent(
            kind=FaultKind.COLLECTIVE_TRANSIENT, rank=6, time=0.0,
            attempts=1),)))
    # uneven clocks, so every barrier entry moves somebody
    with cluster.tracer.phase("warm"):
        for r in cluster.ranks:
            r.charge_compute(1e-3 * (1 + r.rank_id % 5))
    return grid, timeline, injector


def _values(kind, keys_of, rng):
    """One buffer list per communicator: an aliased replica group (one
    array per member position, shared across communicators) or plain
    distinct arrays (payload differs by communicator)."""
    n_comms, size = len(keys_of), len(keys_of[0])
    if kind == "aliased":
        shared = [rng.standard_normal((4, 4)) for _ in range(size)]
        return [list(shared) for _ in range(n_comms)]
    return [[rng.standard_normal((5 + k, 3)) for _ in range(size)]
            for k in range(n_comms)]


def _reduce(grid, grouped, kind, seed):
    """Both axes reduce, then both broadcast, grouped or looped."""
    out = []
    for comms, keys in ((grid.col_comms, grid.col_keys),
                        (grid.row_comms, grid.row_keys)):
        bufs = _values(kind, keys, np.random.default_rng(seed))
        shared = kind == "aliased"
        # one flag per member: only the first sums its group in place
        flags = [shared and n == 0 for n in range(len(comms))]
        if grouped:
            res = comms.allreduce(bufs, shared=flags)
        else:
            res = [c.allreduce(b, shared=s)
                   for c, b, s in zip(comms, bufs, flags)]
        out.append(res)
        roots = [k % comms.size for k in range(len(comms))]
        bufs = _values(kind, keys, np.random.default_rng(seed + 1))
        if grouped:
            res = comms.bcast(bufs, roots, shared=shared)
        else:
            res = [c.bcast(b, root, shared=shared)
                   for c, b, root in zip(comms, bufs, roots)]
        out.append(res)
    return out


def _state(grid, timeline, injector):
    cluster = grid.cluster
    tracer = cluster.tracer
    rows = {
        (ph, r, cat): tracer.rank_total(r, ph, cat)
        for ph in tracer.phases() for r in range(cluster.n_ranks)
        for cat in CostCategory
    }
    events = None
    if timeline is not None:
        # one rank's events keep their order; ranks interleave differently
        events = sorted(
            ((e.rank_id, n, e.phase, e.category, e.start, e.end)
             for n, e in enumerate(timeline.events)),
            key=lambda ev: ev[0])
        events = [(ev[0], *ev[2:]) for ev in events]
    return (cluster.clocks.tolist(), rows, grid.comm_stats(),
            grid.comm_stats_levels(), events,
            None if injector is None else list(injector.log))


def _numbers(results):
    return [
        [np.asarray(b).tolist() for b in res]
        for step in results for res in step
    ]


def _check(backend, kind, hook, slow):
    runs = []
    for grouped in (True, False):
        grid, timeline, injector = _grid(backend, hook, slow)
        with grid.cluster.tracer.phase("reduce"):
            results = _reduce(grid, grouped, kind, seed=7)
        runs.append((_state(grid, timeline, injector), _numbers(results)))
    (state_a, numbers_a), (state_b, numbers_b) = runs
    assert state_a == state_b
    assert numbers_a == numbers_b
    if hook == "faults":
        assert any(entry[0] == "retry" for entry in state_a[-1])


@pytest.mark.parametrize("hook", [None, "timeline", "faults"])
@pytest.mark.parametrize("kind", ["aliased", "plain"])
@pytest.mark.parametrize("backend",
                         [CommBackend.NCCL, CommBackend.MPI_STAGED])
def test_grouped_call_is_the_per_communicator_loop(backend, kind, hook):
    _check(backend, kind, hook, slow=None)


def test_grouped_call_with_a_straggler():
    _check(CommBackend.MPI_STAGED, "plain", "timeline", slow=1.7)


def test_a_rank_death_stops_the_group_where_it_stops_the_loop():
    """Communicators before the one a dead rank belongs to are charged
    and moved, the rest untouched — as the per-communicator loop."""
    states = []
    for grouped in (True, False):
        grid, _tl, injector = _grid(CommBackend.MPI_STAGED, None, None)
        grid.cluster.attach_faults(FaultPlan((FaultEvent(
            kind=FaultKind.RANK_DEATH, rank=6, time=0.0),)))
        bufs = [[np.full((2, 2), float(k))] * P for k in range(Q)]
        with pytest.raises(RankDeathError):
            if grouped:
                grid.col_comms.allreduce(bufs)
            else:
                for comm, b in zip(grid.col_comms, bufs):
                    comm.allreduce(b)
        states.append((grid.cluster.clocks.tolist(), grid.comm_stats()))
    assert states[0] == states[1]
    # rank 6 sits in column communicator 2: columns 0 and 1 ran
    assert [s[0] for s in states[0][1][P:]] == [1, 1, 0, 0]


class TestGroupedBufferChecks:
    """Every buffer list of a grouped call is validated with the errors
    of the single-communicator call."""

    def _axis(self):
        return Grid2D(VirtualCluster(P * Q), P, Q).col_comms

    def _bufs(self, bad):
        bufs = [[np.zeros((2, 2)) for _ in range(P)] for _ in range(Q)]
        bufs[2][1] = bad
        return bufs

    def test_mixed_scalar_array(self):
        with pytest.raises(TypeError, match="mixed scalar/array"):
            self._axis().allreduce(self._bufs(1.0))

    @pytest.mark.parametrize("bad", [[1.0], (1.0,), "x"],
                             ids=["list", "tuple", "str"])
    def test_only_scalars_and_arrays(self, bad):
        with pytest.raises(TypeError, match="collective buffer"):
            self._axis().allreduce([[bad] * P for _ in range(Q)])
        with pytest.raises(TypeError, match="collective buffer"):
            self._axis().allreduce(self._bufs(bad))

    def test_differing_shapes(self):
        with pytest.raises(ValueError, match="buffer shapes differ"):
            self._axis().allreduce(self._bufs(np.zeros((3, 2))))

    def test_one_buffer_list_per_communicator(self):
        with pytest.raises(ValueError, match="one per communicator"):
            self._axis().allreduce(self._bufs(np.zeros((2, 2)))[:-1])

    def test_nothing_is_charged_on_a_bad_list(self):
        axis = self._axis()
        with pytest.raises(ValueError):
            axis.allreduce(self._bufs(np.zeros((3, 2))))
        assert axis.cluster.makespan() == 0.0
        assert all(c.stats.collectives == 0 for c in axis)

    def test_scalars_of_mixed_types_still_reduce(self):
        axis = self._axis()
        bufs = [[1.0, np.float64(2.0), 3] for _ in range(Q)]
        assert axis.allreduce(bufs) == [[6.0] * P] * Q


def test_row_communicators_share_one_cost_table():
    """The 12 row and 12 column communicators of a 12 x 12 grid are two
    cost classes, whose two tables a second such grid binds too; a
    replaced model gets a table of its own."""
    def tables_of(grid):
        for comms in (grid.row_comms, grid.col_comms):
            comms.allreduce([[1.0] * comms.size] * len(comms))
        return {id(c._charges) for c in (*grid.row_comms, *grid.col_comms)}

    grid = Grid2D(VirtualCluster(144, ranks_per_node=4, phantom=True))
    tables = tables_of(grid)
    assert len(tables) == 2
    assert tables_of(Grid2D(
        VirtualCluster(144, ranks_per_node=4, phantom=True))) == tables
    row0, row1 = grid.row_comm(0), grid.row_comm(1)
    before = row0._charge_for("allreduce", 8.0)
    row0.set_overlap_efficiency(0.5)
    assert row0._charge_for("allreduce", 8.0) is not before
    assert row1._charge_for("allreduce", 8.0) is before
    assert row0._charges is not row1._charges


def test_modeled_times_are_python_floats():
    """Clock reads, the makespan, tracer totals, listener intervals and
    the Chrome trace hand out Python floats that round-trip JSON."""
    cluster = VirtualCluster(P * Q, backend=CommBackend.MPI_STAGED)
    grid = Grid2D(cluster, P, Q)
    cluster.ranks[3].slowdown = 1.7
    seen = []
    cluster.charge_listeners.append(
        lambda ids, cat, starts, ends: seen.extend([*starts, *ends]))
    timeline = Timeline.attach(cluster)
    with cluster.tracer.phase("QR"):
        grid.everyone.charge_compute(0.1305)
        grid.col_comms.allreduce([[np.zeros((7, 3))] * P] * Q)
        cluster.book_hidden((0, 1), 0.25, cluster.ranks[0].now)
    breakdown = cluster.tracer.breakdown("QR")
    values = [cluster.makespan(), cluster.ranks[3].now,
              cluster.ranks[3].slowdown,
              cluster.tracer.rank_total(3, "QR", CostCategory.COMPUTE),
              cluster.tracer.total(), *dataclasses.astuple(breakdown),
              breakdown.total, *seen]
    for v in values:
        if v == "QR":  # the breakdown's phase name
            continue
        assert type(v) is float, (v, type(v))
        assert json.loads(json.dumps(v)) == v
    assert seen
    trace = json.loads(timeline.to_chrome_trace())
    assert all(type(e["ts"]) is float and type(e["dur"]) is float
               for e in trace)
    assert json.dumps(trace) == timeline.to_chrome_trace()
