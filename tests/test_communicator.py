"""Unit tests for collective semantics and cost charging."""

import numpy as np
import pytest

from repro.arrays import PhantomArray
from repro.runtime import CommBackend, Communicator, CostCategory, VirtualCluster


def make_comm(n=4, backend=CommBackend.NCCL, ranks_per_node=4):
    cl = VirtualCluster(n, backend=backend, ranks_per_node=ranks_per_node)
    return Communicator(cl.ranks), cl


class TestAllreduce:
    def test_sum_in_place(self):
        comm, _ = make_comm(3)
        bufs = [np.full((2, 2), float(i)) for i in range(3)]
        comm.allreduce(bufs)
        for b in bufs:
            np.testing.assert_allclose(b, 3.0)  # 0+1+2

    def test_views_updated_like_mpi_in_place(self):
        comm, _ = make_comm(2)
        bases = [np.zeros((3, 4)) for _ in range(2)]
        views = [b[:, 1:3] for b in bases]
        views[0][...] = 1.0
        views[1][...] = 2.0
        comm.allreduce(views)
        for b in bases:
            np.testing.assert_allclose(b[:, 1:3], 3.0)
            np.testing.assert_allclose(b[:, 0], 0.0)

    def test_scalar_allreduce(self):
        comm, _ = make_comm(4)
        out = comm.allreduce([1.0, 2.0, 3.0, 4.0])
        assert out == [10.0] * 4

    def test_phantom_allreduce(self):
        comm, cl = make_comm(2)
        bufs = [PhantomArray((5, 5), np.float64)] * 2
        out = comm.allreduce(bufs)
        assert all(isinstance(b, PhantomArray) for b in out)
        assert cl.makespan() > 0

    def test_wrong_buffer_count(self):
        comm, _ = make_comm(3)
        with pytest.raises(ValueError):
            comm.allreduce([np.zeros(2)] * 2)

    def test_shape_mismatch(self):
        comm, _ = make_comm(2)
        with pytest.raises(ValueError):
            comm.allreduce([np.zeros(2), np.zeros(3)])

    def test_mixed_phantom_real_rejected(self):
        comm, _ = make_comm(2)
        with pytest.raises(TypeError):
            comm.allreduce([np.zeros((2, 2)), PhantomArray((2, 2), np.float64)])

    def test_only_sum_supported(self):
        comm, _ = make_comm(2)
        with pytest.raises(NotImplementedError):
            comm.allreduce([np.zeros(1)] * 2, op="max")


class TestBcast:
    def test_root_value_propagates(self):
        comm, _ = make_comm(3)
        bufs = [np.full(4, float(i)) for i in range(3)]
        comm.bcast(bufs, root=1)
        for b in bufs:
            np.testing.assert_allclose(b, 1.0)

    def test_bad_root(self):
        comm, _ = make_comm(2)
        with pytest.raises(IndexError):
            comm.bcast([np.zeros(1)] * 2, root=5)

    def test_scalar_bcast(self):
        comm, _ = make_comm(3)
        assert comm.bcast([7.0, 0.0, 0.0], root=0) == [7.0] * 3


class TestAllgather:
    def test_every_rank_sees_all_blocks(self):
        comm, _ = make_comm(3)
        bufs = [np.full(2, float(i)) for i in range(3)]
        out = comm.allgather(bufs)
        assert len(out) == 3
        for per_rank in out:
            np.testing.assert_allclose(np.concatenate(per_rank), [0, 0, 1, 1, 2, 2])

    def test_by_bcasts_costs_more_messages(self):
        """The v1.2 gather-by-bcasts pays one collective per rank — the
        message-count scaling the paper calls out in Sec. 2.3."""
        comm_a, cl_a = make_comm(8, ranks_per_node=1)
        comm_b, cl_b = make_comm(8, ranks_per_node=1)
        bufs_a = [np.zeros(1000) for _ in range(8)]
        bufs_b = [np.zeros(1000) for _ in range(8)]
        comm_a.allgather(bufs_a)
        comm_b.allgather_by_bcasts(bufs_b)
        assert cl_b.makespan() > cl_a.makespan()


class TestTimingSemantics:
    def test_barrier_synchronizes(self):
        comm, cl = make_comm(2)
        cl.ranks[0].charge_compute(5.0)
        comm.barrier()
        assert cl.ranks[1].clock.now == 5.0

    def test_collective_advances_all_clocks_equally(self):
        comm, cl = make_comm(4)
        cl.ranks[2].charge_compute(1.0)
        comm.allreduce([np.zeros(100) for _ in range(4)])
        times = {r.clock.now for r in cl.ranks}
        assert len(times) == 1
        assert times.pop() > 1.0

    def test_staged_backend_charges_datamove(self):
        comm, cl = make_comm(4, backend=CommBackend.MPI_STAGED)
        comm.allreduce([np.zeros(10000) for _ in range(4)])
        dm = sum(
            cl.tracer.rank_total(r.rank_id, "<unphased>", CostCategory.DATAMOVE)
            for r in cl.ranks
        )
        assert dm > 0

    def test_nccl_backend_no_datamove(self):
        comm, cl = make_comm(4, backend=CommBackend.NCCL)
        comm.allreduce([np.zeros(10000) for _ in range(4)])
        dm = sum(
            cl.tracer.rank_total(r.rank_id, "<unphased>", CostCategory.DATAMOVE)
            for r in cl.ranks
        )
        assert dm == 0

    def test_intranode_cheaper_than_internode_nccl(self):
        comm_in, cl_in = make_comm(4, ranks_per_node=4)
        comm_out, cl_out = make_comm(4, ranks_per_node=1)
        payload = [np.zeros(1_000_000) for _ in range(4)]
        comm_in.allreduce([p.copy() for p in payload])
        comm_out.allreduce([p.copy() for p in payload])
        assert cl_in.makespan() < cl_out.makespan()

    def test_charge_collective(self):
        comm, cl = make_comm(2)
        comm.charge_collective(0.25)
        assert all(r.clock.now == 0.25 for r in cl.ranks)

    def test_collective_charge_memo_follows_the_model(self):
        """The (op, nbytes) charge is costed once per communicator and
        recomputed after anything that prices it is replaced."""
        from repro.perfmodel.collectives import collective_cost
        from repro.perfmodel.topology import FatTree

        comm, _ = make_comm(8, ranks_per_node=2)

        def fresh():
            return collective_cost(comm.model, "allreduce", 4096.0, 8,
                                   comm.topology, comm.algo)

        ring = comm._charge_for("allreduce", 4096.0)
        assert ring is comm._charge_for("allreduce", 4096.0)  # memoised
        assert ring == fresh()
        assert comm._charge_for("bcast", 4096.0) != ring
        comm.set_collective_algo("tree")
        tree = comm._charge_for("allreduce", 4096.0)
        assert tree == fresh() and tree.time != ring.time
        comm.set_topology(FatTree(4, nodes_per_leaf=2))
        hops = comm._charge_for("allreduce", 4096.0)
        assert hops == fresh() and hops.time != tree.time
        comm.set_overlap_efficiency(0.5)
        assert comm._charge_for("allreduce", 4096.0) is not hops
        assert comm._charge_for("allreduce", 4096.0) == fresh()
        comm.set_topology(None)
        comm.set_collective_algo("ring")
        assert comm._charge_for("allreduce", 4096.0) == ring

    def test_empty_communicator_rejected(self):
        with pytest.raises(ValueError):
            Communicator([])


class TestCommStats:
    def test_allreduce_counts(self):
        comm, _ = make_comm(8, ranks_per_node=1)
        comm.allreduce([np.zeros(100) for _ in range(8)])
        assert comm.stats.collectives == 1
        assert comm.stats.messages == 6  # 2 * log2(8)
        assert comm.stats.bytes_moved == 100 * 8 * 8

    def test_gather_by_bcasts_message_growth(self):
        """Sec. 2.3 quantitatively: per-rank broadcasts issue p
        collectives, p log2(p) messages — one collective issues log-many."""
        comm_a, _ = make_comm(8, ranks_per_node=1)
        comm_b, _ = make_comm(8, ranks_per_node=1)
        bufs = [np.zeros(64) for _ in range(8)]
        comm_a.allgather(list(bufs))
        comm_b.allgather_by_bcasts(list(bufs))
        assert comm_b.stats.collectives == 8
        assert comm_a.stats.collectives == 1
        assert comm_b.stats.messages > comm_a.stats.messages

    def test_size_one_records_nothing(self):
        comm, _ = make_comm(1)
        comm.allreduce([np.zeros(10)])
        assert comm.stats.collectives == 0


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
