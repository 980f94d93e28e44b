"""Properties of the topology-aware collective costing (DESIGN.md §5e).

* with the default algorithm and no fat tree, charges are **bit-identical**
  to the seed's flat formulas, and the legacy ``CommStats`` tuple layout
  is frozen in every mode x algorithm combination;
* on a single node every algorithm's hierarchical form degenerates to
  the flat model exactly;
* per-level byte accounting conserves the algorithm-independent total
  (``intra_bytes + inter_bytes == nbytes * p``);
* modeled time is monotone in the payload (above the MPI eager limit,
  where all formulas are linear) and non-decreasing in hop depth;
* on a multi-node communicator the hierarchical algorithm strictly
  beats the flat ring for large payloads — the reason it exists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChaseConfig, ChaseSolver
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.perfmodel import FatTree, juwels_booster
from repro.perfmodel.collectives import (
    CollectiveAlgo,
    CommTopology,
    MpiModel,
    NcclModel,
    collective_cost,
)
from repro.runtime import CommBackend, Grid2D, VirtualCluster

_MODELS = [NcclModel(juwels_booster()), MpiModel(juwels_booster())]
_OPS = ["allreduce", "bcast", "allgather"]
_ALGOS = list(CollectiveAlgo)

# payloads above the MPI eager limit (64 KiB), where every formula is
# linear in nbytes; the eager/rendezvous switch itself is allowed to
# step downward and is excluded by construction
_nbytes = st.integers(min_value=128 * 1024, max_value=1 << 28)
_models = st.sampled_from(_MODELS)
_ops = st.sampled_from(_OPS)
_algos = st.sampled_from(_ALGOS)
# a communicator membership: ranks -> node ids (possibly all equal)
_nodes = st.lists(st.integers(min_value=0, max_value=3), min_size=2,
                  max_size=12)


@settings(max_examples=80, deadline=None)
@given(model=_models, op=_ops, nbytes=_nbytes, p=st.integers(2, 12))
def test_single_node_hierarchical_equals_flat(model, op, nbytes, p):
    topo = CommTopology([0] * p)
    flat = collective_cost(model, op, nbytes, p, topo, CollectiveAlgo.RING)
    hier = collective_cost(model, op, nbytes, p, topo,
                           CollectiveAlgo.HIERARCHICAL)
    assert hier.time == flat.time  # bit-identical, not approximately


@settings(max_examples=120, deadline=None)
@given(model=_models, op=_ops, algo=_algos, nbytes=_nbytes, nodes=_nodes)
def test_per_level_bytes_conserve_total(model, op, algo, nbytes, nodes):
    p = len(nodes)
    charge = collective_cost(model, op, nbytes, p, CommTopology(nodes), algo)
    assert charge.intra_bytes + charge.inter_bytes == pytest.approx(
        float(nbytes) * p
    )
    assert charge.intra_bytes >= 0.0 and charge.inter_bytes >= 0.0
    assert charge.intra_messages >= 0 and charge.inter_messages >= 0
    assert charge.time > 0.0


@settings(max_examples=120, deadline=None)
@given(model=_models, op=_ops, algo=_algos, nodes=_nodes,
       nb_lo=_nbytes, nb_hi=_nbytes)
def test_time_monotone_in_payload(model, op, algo, nodes, nb_lo, nb_hi):
    if nb_lo > nb_hi:
        nb_lo, nb_hi = nb_hi, nb_lo
    p = len(nodes)
    topo = CommTopology(nodes)
    lo = collective_cost(model, op, nb_lo, p, topo, algo).time
    hi = collective_cost(model, op, nb_hi, p, topo, algo).time
    assert lo <= hi


@settings(max_examples=80, deadline=None)
@given(model=_models, op=_ops, algo=_algos, nbytes=_nbytes,
       p_per_node=st.integers(1, 3))
def test_time_nondecreasing_in_hop_depth(model, op, algo, nbytes,
                                         p_per_node):
    # 4 nodes, same membership; shallow = one leaf switch (hops = 2),
    # deep = one node per leaf, everything crosses the core (hops = 4)
    nodes = [n for n in range(4) for _ in range(p_per_node)]
    p = len(nodes)
    shallow = CommTopology(nodes, FatTree(4, nodes_per_leaf=4))
    deep = CommTopology(nodes, FatTree(4, nodes_per_leaf=1))
    assert shallow.max_hops <= deep.max_hops
    t_shallow = collective_cost(model, op, nbytes, p, shallow, algo).time
    t_deep = collective_cost(model, op, nbytes, p, deep, algo).time
    assert t_shallow <= t_deep


@settings(max_examples=80, deadline=None)
@given(model=_models, op=_ops, nbytes=_nbytes, nodes=_nodes)
def test_auto_is_cheapest(model, op, nbytes, nodes):
    p = len(nodes)
    topo = CommTopology(nodes)
    times = {
        algo: collective_cost(model, op, nbytes, p, topo, algo).time
        for algo in _ALGOS
    }
    assert times[CollectiveAlgo.AUTO] == min(times.values())


@settings(max_examples=60, deadline=None)
@given(model=_models, op=_ops, nbytes=_nbytes, p=st.integers(2, 12))
def test_no_topology_ring_is_seed_formula(model, op, nbytes, p):
    """Default algorithm + no topology = the seed's flat charge, bitwise."""
    for spans, topo in ((False, CommTopology([0] * p)),
                        (True, CommTopology(list(range(p))))):
        seed = getattr(model, op)(nbytes, p, spans)
        got = collective_cost(model, op, nbytes, p, topo,
                              CollectiveAlgo.RING).time
        assert got == seed


def test_hierarchical_beats_ring_internode_large_payload():
    nodes = [0, 0, 0, 0, 1, 1, 1, 1]  # 8 ranks on 2 nodes (2x4 block)
    for model in _MODELS:
        for nbytes in (1_000_000, 60_000_000):
            ring = collective_cost(model, "allreduce", nbytes, 8,
                                   CommTopology(nodes),
                                   CollectiveAlgo.RING).time
            hier = collective_cost(model, "allreduce", nbytes, 8,
                                   CommTopology(nodes),
                                   CollectiveAlgo.HIERARCHICAL).time
            assert hier < ring, (model.__class__.__name__, nbytes)


def test_collective_algo_parse():
    assert CollectiveAlgo.parse(None) is CollectiveAlgo.RING
    assert CollectiveAlgo.parse("") is CollectiveAlgo.RING
    assert CollectiveAlgo.parse(" Hierarchical ") is \
        CollectiveAlgo.HIERARCHICAL
    assert CollectiveAlgo.parse(CollectiveAlgo.AUTO) is CollectiveAlgo.AUTO
    with pytest.raises(ValueError, match="ring, tree, hierarchical, auto"):
        CollectiveAlgo.parse("butterfly")


def _solve(backend, algo, deep_tree=False, scheme="new"):
    rpn, gpr = (1, 4) if scheme == "lms" else (4, 1)
    n_nodes = 8 if scheme == "lms" else 2
    tree = FatTree(n_nodes, nodes_per_leaf=1) if deep_tree else None
    cluster = VirtualCluster(8, backend=backend,
                             ranks_per_node=rpn, gpus_per_rank=gpr,
                             topology=tree, collective_algo=algo)
    grid = Grid2D(cluster, 2, 4)
    H = uniform_matrix(120, rng=np.random.default_rng(7))
    Hd = DistributedHermitian.from_dense(grid, H)
    res = ChaseSolver(grid, Hd, ChaseConfig(nev=12, nex=6),
                      scheme=scheme).solve(rng=np.random.default_rng(3))
    return res, grid


@pytest.mark.parametrize("backend,scheme", [
    (CommBackend.NCCL, "new"),
    (CommBackend.MPI_STAGED, "new"),
    (CommBackend.MPI_HOST, "new"),
    (CommBackend.MPI_STAGED, "lms"),
])
def test_commstats_layout_and_numerics_frozen_across_algos(backend, scheme):
    """The legacy CommStats triple and the eigenpairs are identical under
    every algorithm and with a fat tree attached; only modeled time and
    the per-level counters may move."""
    base, base_grid = _solve(backend, "ring", scheme=scheme)
    base_stats = base_grid.comm_stats()
    for algo, deep in (("tree", False), ("hierarchical", False),
                       ("auto", False), ("hierarchical", True)):
        res, grid = _solve(backend, algo, deep_tree=deep, scheme=scheme)
        assert grid.comm_stats() == base_stats
        np.testing.assert_array_equal(res.eigenvalues, base.eigenvalues)
        levels = grid.comm_stats_levels()
        for (c, m, b), (im, xm, ib, xb) in zip(base_stats, levels):
            assert ib + xb == pytest.approx(b)
            # per-level message counts follow the *selected* algorithm
            # (they need not match the flat legacy count), but every
            # issued collective must be attributed to some level
            assert (im + xm > 0) == (m > 0)


def test_env_var_selects_algo(monkeypatch):
    """``REPRO_COLL_ALGO`` is a default of the CLI's ``--coll-algo``
    only: the library constructor never reads it."""
    from repro.cli import _env_defaults

    monkeypatch.setenv("REPRO_COLL_ALGO", "hierarchical")
    assert _env_defaults()["coll_algo"] == "hierarchical"
    assert VirtualCluster(4).collective_algo is CollectiveAlgo.RING
    monkeypatch.setenv("REPRO_COLL_ALGO", "nope")
    with pytest.raises(ValueError, match="REPRO_COLL_ALGO.*hierarchical"):
        _env_defaults()
    assert VirtualCluster(4).collective_algo is CollectiveAlgo.RING
    with pytest.raises(ValueError):
        VirtualCluster(4, collective_algo="nope")
