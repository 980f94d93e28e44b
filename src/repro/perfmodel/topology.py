"""Interconnect topology analysis (fat trees).

The collective models in :mod:`repro.perfmodel.collectives` distinguish
only intra- vs inter-node traffic.  Real clusters route inter-node
messages through a switch hierarchy — JUWELS-Booster uses a DragonFly+
topology, many systems use k-ary fat trees — and a communicator's cost
depends on how deep into the tree its traffic must climb.

This module models a two-level fat tree (also as a :mod:`networkx`
graph, imported only by :meth:`FatTree.graph`, so the package does not
need it) and answers the questions a placement study needs:

* how many switch hops separate two nodes;
* a communicator's average/maximum hop count;
* how much of a communicator's pairwise traffic crosses the root level
  (the oversubscription exposure).

`bench_ablation_placement.py` uses it to quantify *why* one placement
beats another beyond the intra/inter-node split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FatTree"]


@dataclass(frozen=True)
class FatTree:
    """A two-level fat tree: leaf switches x nodes per leaf.

    Nodes ``0..n_nodes-1`` hang off leaf switches of radix
    ``nodes_per_leaf``; all leaf switches connect to a single core
    level.  Hop counts: same node 0, same leaf 2 (up+down), across
    leaves 4 (up, core, down).
    """

    n_nodes: int
    nodes_per_leaf: int = 8

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.nodes_per_leaf < 1:
            raise ValueError("need positive node/leaf sizes")

    # -- structure ----------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return math.ceil(self.n_nodes / self.nodes_per_leaf)

    def leaf_of(self, node: int) -> int:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range")
        return node // self.nodes_per_leaf

    def graph(self):
        """The topology as an explicit :class:`networkx.Graph` (for
        analysis/plotting)."""
        import networkx as nx

        g = nx.Graph()
        core = "core"
        g.add_node(core, kind="core")
        for leaf in range(self.n_leaves):
            ls = f"leaf{leaf}"
            g.add_node(ls, kind="leaf")
            g.add_edge(core, ls)
        for node in range(self.n_nodes):
            g.add_node(node, kind="node")
            g.add_edge(node, f"leaf{self.leaf_of(node)}")
        return g

    # -- queries -------------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Switch hops between two nodes (0 if equal, 2 same leaf, 4 else)."""
        if a == b:
            return 0
        return 2 if self.leaf_of(a) == self.leaf_of(b) else 4

    def hops_via_graph(self, a: int, b: int) -> int:
        """Same as :meth:`hops` but computed on the explicit graph
        (cross-checks the closed form; used by tests)."""
        import networkx as nx

        if a == b:
            return 0
        return nx.shortest_path_length(self.graph(), a, b)

    def comm_profile(self, nodes: list[int]) -> dict[str, float]:
        """Pairwise hop statistics of a communicator's node set.

        Returns mean/max hops and the fraction of pairs crossing the
        core level (the oversubscription exposure of its collectives).
        """
        uniq = sorted(set(nodes))
        if len(uniq) <= 1:
            return {"mean_hops": 0.0, "max_hops": 0, "core_fraction": 0.0}
        pairs = [
            (a, b) for i, a in enumerate(uniq) for b in uniq[i + 1 :]
        ]
        hop_list = [self.hops(a, b) for a, b in pairs]
        return {
            "mean_hops": float(sum(hop_list) / len(hop_list)),
            "max_hops": int(max(hop_list)),
            "core_fraction": float(
                sum(h == 4 for h in hop_list) / len(hop_list)
            ),
        }
