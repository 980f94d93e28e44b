"""Unit tests for tracer, ranks, cluster and grid."""

import pytest

from repro.runtime import (
    CommBackend,
    CostCategory,
    Grid2D,
    Tracer,
    VirtualCluster,
    squarest_grid,
)


def _add(tracer, rank_id, category, dt):
    """One charge the way the cluster's charge methods make it."""
    tracer.row(category)[rank_id] += dt


class TestTracer:
    def test_phase_scoping(self):
        t = Tracer(1)
        with t.phase("Filter"):
            _add(t, 0, CostCategory.COMPUTE, 1.0)
            with t.phase("inner"):
                _add(t, 0, CostCategory.COMM, 0.5)
            _add(t, 0, CostCategory.COMPUTE, 1.0)
        assert t.breakdown("Filter").compute == 2.0
        assert t.breakdown("inner").comm == 0.5

    def test_critical_rank_breakdown(self):
        """The reported split is the slowest rank's, not the sum."""
        t = Tracer(2)
        with t.phase("QR"):
            _add(t, 0, CostCategory.COMPUTE, 1.0)
            _add(t, 1, CostCategory.COMPUTE, 3.0)
            _add(t, 1, CostCategory.COMM, 0.5)
        b = t.breakdown("QR")
        assert b.compute == 3.0
        assert b.comm == 0.5
        assert b.total == 3.5

    def test_unphased_charges_recorded(self):
        t = Tracer(1)
        _add(t, 0, CostCategory.DATAMOVE, 2.0)
        assert t.total() == 2.0

    def test_rank_total_reads_one_rank_phase_and_category(self):
        t = Tracer(8)
        with t.phase("QR"):
            _add(t, 7, CostCategory.COMPUTE, 2.0)
            _add(t, 2, CostCategory.COMM, 0.5)
            _add(t, 7, CostCategory.COMPUTE, 1.0)
        assert t.rank_total(7, "QR", CostCategory.COMPUTE) == 3.0
        assert t.rank_total(2, "QR", CostCategory.COMM) == 0.5
        assert t.rank_total(2, "QR", CostCategory.COMPUTE) == 0.0
        assert t.rank_total(7, "RR", CostCategory.COMPUTE) == 0.0
        assert t.breakdown("QR").compute == 3.0

    def test_phases_in_order_of_first_charge(self):
        t = Tracer(2)
        with t.phase("outer"):
            with t.phase("inner"):
                _add(t, 0, CostCategory.COMM, 1.0)
            _add(t, 0, CostCategory.COMM, 1.0)
        with t.phase("never charged"):
            pass
        assert t.phases() == ["inner", "outer"]

    def test_equal_critical_totals_resolve_to_lowest_rank(self):
        t = Tracer(3)
        # charged last, and in another category order, rank 0 still wins
        _add(t, 2, CostCategory.COMPUTE, 1.0)
        _add(t, 2, CostCategory.COMM, 2.0)
        _add(t, 1, CostCategory.COMPUTE, 2.0)
        _add(t, 1, CostCategory.COMM, 1.0)
        _add(t, 0, CostCategory.DATAMOVE, 3.0)
        b = t.breakdown("<unphased>")
        assert (b.compute, b.comm, b.datamove) == (0.0, 0.0, 3.0)

    def test_critical_total_summed_in_one_fixed_order(self):
        """compute + comm + datamove + recovery, whatever order a rank's
        categories were first charged in: 1e16 + 1 + 1 rounds to 1e16,
        1 + 1 + 1e16 would not."""
        t = Tracer(2)
        _add(t, 0, CostCategory.DATAMOVE, 1.0)
        _add(t, 0, CostCategory.COMM, 1.0)
        _add(t, 0, CostCategory.COMPUTE, 1e16)
        _add(t, 1, CostCategory.COMPUTE, 1e16 + 2.0)
        assert t.breakdown("<unphased>").compute == 1e16 + 2.0

    def test_hidden_only_rank_is_reported_when_no_rank_advanced(self):
        t = Tracer(4)
        _add(t, 2, CostCategory.COMM_HIDDEN, 0.5)
        b = t.breakdown("<unphased>")
        assert b.comm_hidden == 0.5 and b.total == 0.0
        # ...and does not beat a rank that advanced
        _add(t, 3, CostCategory.COMM, 0.25)
        b = t.breakdown("<unphased>")
        assert (b.comm, b.comm_hidden) == (0.25, 0.0)


class TestCluster:
    def test_rank_placement(self):
        cl = VirtualCluster(8, ranks_per_node=4)
        assert cl.n_nodes == 2
        assert [r.node for r in cl.ranks] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_lms_configuration(self):
        cl = VirtualCluster(2, ranks_per_node=1, gpus_per_rank=4)
        assert cl.n_nodes == 2
        # GEMM rate is scaled by the rank's 4 GPUs, factor rate is not
        r = cl.ranks[0]
        assert r.gpu_spec.gemm_rate == 4 * cl.machine.gpu.gemm_rate
        assert r.gpu_spec.factor_rate == cl.machine.gpu.factor_rate

    def test_makespan(self):
        cl = VirtualCluster(2)
        assert cl.makespan() == 0.0
        cl.ranks[1].charge_compute(2.0)
        assert cl.makespan() == 2.0

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)

    def test_group_charge_is_the_per_rank_charges(self):
        """One ``charge`` call for a group leaves every clock and tracer
        cell exactly where per-rank calls leave them — slowdowns, per-rank
        ``dt`` and repeated adds included."""
        a, b = VirtualCluster(4), VirtualCluster(4)
        for cl in (a, b):
            cl.ranks[2].slowdown = 1.7
        with a.tracer.phase("Filter"), b.tracer.phase("Filter"):
            for dt in (0.1, 0.2, 0.3):
                a.charge((0, 2, 3), CostCategory.COMPUTE, dt)
                a.charge((0, 2, 3), CostCategory.COMM, dt / 3)
                a.charge([2, 1], CostCategory.COMPUTE, [dt, 2 * dt])
                a.charge([2, 1], CostCategory.DATAMOVE, (dt, 2 * dt))
                for r in (0, 2, 3):
                    b.ranks[r].charge_compute(dt)
                    b.ranks[r].charge_comm(dt / 3)
                b.ranks[2].charge_compute(dt)
                b.ranks[1].charge_compute(2 * dt)
                b.ranks[2].charge_datamove(dt)
                b.ranks[1].charge_datamove(2 * dt)
        assert a.clocks.tolist() == b.clocks.tolist()
        assert a.clocks[2] != a.clocks[0]  # the straggler's multiplier
        assert a.tracer.breakdown("Filter") == b.tracer.breakdown("Filter")
        for r in range(4):
            for cat in CostCategory:
                assert a.tracer.rank_total(r, "Filter", cat) \
                    == b.tracer.rank_total(r, "Filter", cat)

    def test_negative_charges_rejected_per_rank_and_per_group(self):
        cl = VirtualCluster(3)
        rank = cl.ranks[1]
        for charge in (rank.charge_compute, rank.charge_comm,
                       rank.charge_datamove, rank.charge_recovery):
            with pytest.raises(ValueError):
                charge(-1.0)
        with pytest.raises(ValueError):
            rank.charge_comm_hidden(-1.0, start=0.0)
        with pytest.raises(ValueError):
            cl.charge((0, 1, 2), CostCategory.COMM, -1e-9)
        with pytest.raises(ValueError):
            cl.charge((0, 1, 2), CostCategory.COMPUTE, [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            cl.book_hidden((0, 1), [0.5, -0.5], 0.0)
        assert cl.makespan() == 0.0 and cl.tracer.total() == 0.0

    def test_sync_is_idle_time(self):
        cl = VirtualCluster(3)
        cl.ranks[1].charge_compute(2.0)
        assert cl.sync((0, 1)) == 2.0
        assert cl.clocks.tolist() == [2.0, 2.0, 0.0]
        assert cl.sync((2,), 0.5) == 0.5 and cl.sync((1,), 0.5) == 0.5
        assert cl.clocks.tolist() == [2.0, 2.0, 0.5]
        assert cl.tracer.total() == 2.0  # waiting is charged to no category

    def test_shrink_survivors_index_the_shared_state(self):
        cl = VirtualCluster(4)
        cl.ranks[3].slowdown = 2.0
        small = cl.shrink([1])
        assert [r.rank_id for r in small.ranks] == [0, 2, 3]
        small.ranks[2].charge_compute(1.0)          # rank_id 3, slowed
        small.charge((0, 3), CostCategory.COMM, 0.5)
        assert cl.clocks.tolist() == [0.5, 0.0, 0.0, 2.5]
        assert small.clocks is cl.clocks and small.tracer is cl.tracer
        assert small.makespan() == 2.5
        cl.ranks[1].charge_compute(9.0)              # dead ranks are frozen out
        assert small.makespan() == 2.5 and cl.makespan() == 9.0

    def test_backend_default_kernel_set(self):
        gpu_cl = VirtualCluster(1, backend=CommBackend.NCCL)
        cpu_cl = VirtualCluster(1, backend=CommBackend.MPI_HOST)
        assert gpu_cl.ranks[0].k is gpu_cl.ranks[0].gpu
        assert cpu_cl.ranks[0].k is cpu_cl.ranks[0].cpu


class TestGrid:
    def test_squarest_grid(self):
        assert squarest_grid(16) == (4, 4)
        assert squarest_grid(12) == (3, 4)
        assert squarest_grid(7) == (1, 7)
        assert squarest_grid(1) == (1, 1)

    def test_coords_row_major(self):
        g = Grid2D(VirtualCluster(6), 2, 3)
        assert g.rank_at(0, 0).rank_id == 0
        assert g.rank_at(0, 2).rank_id == 2
        assert g.rank_at(1, 0).rank_id == 3
        assert g.rank_at(1, 0).coords == (1, 0)

    def test_communicator_membership(self):
        g = Grid2D(VirtualCluster(6), 2, 3)
        assert [r.rank_id for r in g.row_comm(1).ranks] == [3, 4, 5]
        assert [r.rank_id for r in g.col_comm(2).ranks] == [2, 5]

    def test_charge_classes_of_the_paper_grid(self):
        """The 12 x 12 grid of Fig. 3b: a C/B multivector has two block
        heights, H four block shapes plus the diagonal overlap."""
        from repro.distributed import DistributedHemm, DistributedHermitian
        from repro.arrays import PhantomArray
        from repro.distributed import Operand

        g = Grid2D(VirtualCluster(144, phantom=True))
        H = DistributedHermitian.phantom(g, 115_459)
        C = Operand("C", 8, H.dtype, H.rowmap)
        assert [len(c.ids) for c in C.classes(g)] == [84, 60]
        assert C.classes(g) is Operand.of(C, 4).classes(g)  # cached per map
        hemm = DistributedHemm(H)
        assert sorted(len(c.ids) for c in hemm.classes()) \
            == [5, 7, 20, 35, 35, 42]
        assert sum(len(c.ids) for c in hemm.classes()) == 144
        # one kernel call on a class charges every member, nobody else
        first = hemm.classes()[0]
        first.k.syrk(PhantomArray((C.rows(first.key), C.ne), C.dtype))
        charged = {i for i, t in enumerate(g.cluster.clocks) if t > 0.0}
        assert charged == set(first.ids)
        assert len({g.cluster.clocks[i] for i in first.ids}) == 1
        assert g.everyone.ids == tuple(range(144))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid2D(VirtualCluster(6), 4, 2)
        with pytest.raises(ValueError):
            Grid2D(VirtualCluster(7), q=2)

    def test_auto_square(self):
        g = Grid2D(VirtualCluster(9))
        assert (g.p, g.q) == (3, 3)

    def test_spans_nodes(self):
        g = Grid2D(VirtualCluster(4, ranks_per_node=4), 2, 2)
        assert not g.row_comm(0).spans_nodes
        g2 = Grid2D(VirtualCluster(4, ranks_per_node=2), 2, 2)
        assert g2.col_comm(0).spans_nodes  # ranks 0 and 2 on nodes 0, 1

    def test_backend_consistency_enforced(self):
        from repro.runtime import Communicator

        a = VirtualCluster(1, backend=CommBackend.NCCL).ranks[0]
        b = VirtualCluster(1, backend=CommBackend.MPI_HOST).ranks[0]
        with pytest.raises(ValueError):
            Communicator([a, b])


class TestPlacement:
    def test_block_placement_default(self):
        cl = VirtualCluster(8, ranks_per_node=4)
        assert [r.node for r in cl.ranks] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_round_robin_placement(self):
        cl = VirtualCluster(8, ranks_per_node=4, placement="round_robin")
        assert [r.node for r in cl.ranks] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_placement_changes_comm_topology(self):
        # 2x2 grid, 2 ranks/node: block -> rows intra-node; round_robin
        # -> columns intra-node
        blk = Grid2D(VirtualCluster(4, ranks_per_node=2), 2, 2)
        rr = Grid2D(
            VirtualCluster(4, ranks_per_node=2, placement="round_robin"), 2, 2
        )
        assert not blk.row_comm(0).spans_nodes
        assert blk.col_comm(0).spans_nodes
        assert rr.row_comm(0).spans_nodes
        assert not rr.col_comm(0).spans_nodes

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            VirtualCluster(4, placement="bogus")

    def test_straggler_attribute_default(self):
        cl = VirtualCluster(2)
        assert all(r.slowdown == 1.0 for r in cl.ranks)


class TestTimelineAtTheChokePoint:
    """The Timeline is one listener on ``VirtualCluster.charge``: a group
    charge becomes one event per member, with the member's own interval."""

    def test_group_charge_expands_to_per_rank_events(self):
        from repro.runtime import Timeline

        cl = VirtualCluster(3)
        cl.ranks[1].slowdown = 2.0
        tl = Timeline.attach(cl)
        cl.ranks[2].charge_comm(0.25)
        with cl.tracer.phase("Filter"):
            cl.charge((0, 1, 2), CostCategory.COMPUTE, 1.0)
        assert [(e.rank_id, e.phase, e.start, e.end) for e in tl.events[1:]] \
            == [(0, "Filter", 0.0, 1.0), (1, "Filter", 0.0, 2.0),
                (2, "Filter", 0.25, 1.25)]
        cl.book_hidden((0, 2), [0.5, 0.125], 0.25)
        hidden = tl.events[4:]
        assert [(e.rank_id, e.start, e.end) for e in hidden] \
            == [(0, 0.25, 0.75), (2, 0.25, 0.375)]
        assert all(e.category is CostCategory.COMM_HIDDEN for e in hidden)
        assert tl.span() == (0.0, cl.makespan())

    def test_class_and_collective_charges_are_recorded(self):
        """Charges that never pass through a RankContext method — class
        kernels, communicator group charges — still reach the listener."""
        from repro.runtime import Timeline

        g = Grid2D(VirtualCluster(4), 2, 2)
        tl = Timeline.attach(g.cluster)
        g.everyone.charge_compute(1.0)
        g.row_comm(0).allreduce([1.0, 2.0])
        assert sorted(e.rank_id for e in tl.events
                      if e.category is CostCategory.COMPUTE) == [0, 1, 2, 3]
        assert sorted(e.rank_id for e in tl.events
                      if e.category is CostCategory.COMM) == [0, 1]
        assert tl.span()[1] == g.cluster.makespan()

    def test_survivor_cluster_shares_the_listener(self):
        from repro.runtime import Timeline

        cl = VirtualCluster(3)
        tl = Timeline.attach(cl)
        small = cl.shrink([0])
        assert tl.attach_to(small) is tl  # already listening: no double count
        small.ranks[0].charge_compute(1.0)
        assert [(e.rank_id, e.end) for e in tl.events] == [(1, 1.0)]
        tl.detach()
        small.ranks[0].charge_compute(1.0)
        assert len(tl.events) == 1
