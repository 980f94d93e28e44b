"""Tests for the fat-tree topology model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.perfmodel.topology import FatTree


def test_import_repro_does_not_need_networkx():
    """networkx is the graph oracle's only: importing the package (the
    CLI and the topology model included) with networkx blocked succeeds
    and imports none of it."""
    code = ("import sys; sys.modules['networkx'] = None; "
            "import repro, repro.cli, repro.perfmodel.topology; "
            "assert sys.modules['networkx'] is None; "
            "assert not any(m.startswith('networkx.') for m in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


class TestFatTree:
    def test_structure(self):
        t = FatTree(n_nodes=20, nodes_per_leaf=8)
        assert t.n_leaves == 3
        assert t.leaf_of(0) == 0
        assert t.leaf_of(7) == 0
        assert t.leaf_of(8) == 1
        assert t.leaf_of(19) == 2

    def test_hop_counts(self):
        t = FatTree(16, nodes_per_leaf=4)
        assert t.hops(3, 3) == 0
        assert t.hops(0, 3) == 2     # same leaf
        assert t.hops(0, 4) == 4     # across leaves

    def test_graph_matches_closed_form(self):
        t = FatTree(12, nodes_per_leaf=4)
        for a in range(12):
            for b in range(12):
                assert t.hops(a, b) == t.hops_via_graph(a, b)

    def test_graph_shape(self):
        t = FatTree(8, nodes_per_leaf=4)
        g = t.graph()
        # 8 nodes + 2 leaves + 1 core
        assert g.number_of_nodes() == 11
        kinds = {d["kind"] for _n, d in g.nodes(data=True)}
        assert kinds == {"node", "leaf", "core"}

    def test_comm_profile_single_leaf(self):
        t = FatTree(16, nodes_per_leaf=8)
        prof = t.comm_profile([0, 1, 2, 3])
        assert prof == {"mean_hops": 2.0, "max_hops": 2, "core_fraction": 0.0}

    def test_comm_profile_spanning(self):
        t = FatTree(16, nodes_per_leaf=4)
        prof = t.comm_profile([0, 4, 8, 12])  # one per leaf
        assert prof["core_fraction"] == 1.0
        assert prof["max_hops"] == 4

    def test_comm_profile_trivial(self):
        t = FatTree(8)
        assert t.comm_profile([3])["max_hops"] == 0
        assert t.comm_profile([3, 3, 3])["max_hops"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FatTree(0)
        with pytest.raises(IndexError):
            FatTree(4).leaf_of(9)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 64), per=st.integers(1, 9),
           a=st.integers(0, 63), b=st.integers(0, 63))
    def test_hops_metric_properties(self, n, per, a, b):
        t = FatTree(n, per)
        a, b = a % n, b % n
        h = t.hops(a, b)
        assert h in (0, 2, 4)
        assert h == t.hops(b, a)          # symmetric
        assert (h == 0) == (a == b)       # identity


class TestPlacementProfiles:
    def test_block_vs_round_robin_core_exposure(self):
        """Block placement keeps row communicators on one leaf; cyclic
        placement spreads them across the core — the topology-level
        story behind the placement ablation."""
        from repro.runtime import Grid2D, VirtualCluster

        t = FatTree(4, nodes_per_leaf=2)
        for placement, expect_core in (("block", 0.0), ("round_robin", None)):
            cl = VirtualCluster(8, ranks_per_node=2, placement=placement)
            g = Grid2D(cl, 2, 4)
            row_nodes = [r.node for r in g.row_comm(0).ranks]
            prof = t.comm_profile(row_nodes)
            if expect_core is not None:
                assert prof["core_fraction"] == expect_core
            else:
                assert prof["core_fraction"] > 0.0
