"""Latency/bandwidth models for MPI and NCCL collective operations.

The models are the standard alpha-beta cost expressions:

* **MPI allreduce** — recursive halving/doubling (Rabenseifner):
  ``2 ceil(log2 p) alpha + 2 n beta (p-1)/p``; when ``p`` is not a power
  of two an extra preparation/return round is charged, which produces
  the dips at 4/16/64/256 nodes the paper observes for ChASE(STD) in
  Fig. 3a.
* **MPI broadcast** — binomial tree for short messages,
  scatter + allgather (van de Geijn) for long ones.
* **NCCL allreduce/broadcast** — pipelined ring: ``2 (p-1) alpha +
  2 n beta (p-1)/p`` (allreduce), ``(p-1) alpha + n beta`` (broadcast),
  with the ring bandwidth set by the slowest link it crosses (NVLink if
  the communicator lives in one node, GPUDirect-IB otherwise).

All methods return modeled seconds for one collective over ``p`` ranks
moving ``nbytes`` per rank.

Topology-aware costing (DESIGN.md §5e)
--------------------------------------

The flat methods above reduce the network to a ``spans_nodes`` boolean.
Two orthogonal refinements sharpen that:

* **Hop-aware link selection** — when a communicator carries a
  :class:`CommTopology` with a :class:`~repro.perfmodel.topology.FatTree`
  attached, the inter-node link is derated by the deepest switch level
  its traffic crosses (extra per-hop latency) and by its root-level
  oversubscription exposure (``core_fraction`` of node pairs crossing
  the core derates bandwidth).  Without a tree — or for intra-node
  traffic — the link is the seed model's, bit for bit.
* **Algorithm selection** — :func:`collective_cost` routes one
  collective through a :class:`CollectiveAlgo`: ``ring`` (the seed
  models' native flat algorithm, the default), ``tree`` (flat binomial
  tree, latency-optimal for short messages), ``hierarchical``
  (intra-node reduce -> inter-node allreduce among one leader per node
  -> intra-node bcast, keeping the bulk of the traffic on the fastest
  links), or ``auto`` (cheapest of the three per call).

Both refinements change *modeled time only*; the data movement and
numerics of :class:`repro.runtime.communicator.Communicator` are
untouched, and the default (``ring``, no tree) reproduces the seed
charges exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.perfmodel.machine import LinkSpec, MachineSpec
from repro.perfmodel.topology import FatTree

__all__ = [
    "CollectiveModel",
    "MpiModel",
    "NcclModel",
    "CollectiveAlgo",
    "CommTopology",
    "CollectiveCharge",
    "collective_cost",
]

_EAGER_LIMIT = 64 * 1024  # bytes; binomial bcast below, pipelined above


def _is_pow2(p: int) -> bool:
    return p > 0 and (p & (p - 1)) == 0


def _log2ceil(p: int) -> int:
    return math.ceil(math.log2(p)) if p > 1 else 0


class CollectiveAlgo(enum.Enum):
    """Which algorithm a communicator's collectives are costed with."""

    RING = "ring"                  # the flat per-backend seed algorithm
    TREE = "tree"                  # flat binomial tree
    HIERARCHICAL = "hierarchical"  # two-level: intra-node / node leaders
    AUTO = "auto"                  # cheapest of the above per call

    @classmethod
    def parse(cls, value: "CollectiveAlgo | str | None") -> "CollectiveAlgo":
        """Coerce a user/env value; ``None``/empty means the default."""
        if value is None:
            return cls.RING
        if isinstance(value, cls):
            return value
        name = str(value).strip().lower()
        if not name:
            return cls.RING
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValueError(
                f"unknown collective algorithm {value!r} (expected one of {valid})"
            ) from None


class CommTopology:
    """Where a communicator's members live: node ids + optional fat tree.

    Everything is derived once at construction (membership is immutable):
    the node groups for hierarchical costing and — when a
    :class:`FatTree` is attached — the deepest switch level crossed and
    the root-level oversubscription exposure of the member pairs.
    """

    __slots__ = ("nodes", "tree", "spans_nodes", "n_nodes", "local_sizes",
                 "max_local", "max_hops", "core_fraction")

    def __init__(self, nodes, tree: FatTree | None = None) -> None:
        self.nodes = tuple(int(n) for n in nodes)
        if not self.nodes:
            raise ValueError("topology needs at least one member")
        self.tree = tree
        uniq = sorted(set(self.nodes))
        self.n_nodes = len(uniq)
        self.spans_nodes = self.n_nodes > 1
        counts = {n: 0 for n in uniq}
        for n in self.nodes:
            counts[n] += 1
        self.local_sizes = tuple(counts[n] for n in uniq)
        self.max_local = max(self.local_sizes)
        if tree is not None and self.spans_nodes:
            prof = tree.comm_profile(uniq)
            self.max_hops = int(prof["max_hops"])
            self.core_fraction = float(prof["core_fraction"])
        else:
            # no tree: the seed's boolean view (one switch level)
            self.max_hops = 2 if self.spans_nodes else 0
            self.core_fraction = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommTopology({len(self.nodes)} ranks on {self.n_nodes} nodes, "
            f"max_hops={self.max_hops}, core={self.core_fraction:.2f}, "
            f"tree={'yes' if self.tree is not None else 'no'})"
        )


@dataclass(frozen=True)
class CollectiveCharge:
    """Modeled time plus the per-level accounting of one collective.

    The byte counters split the legacy ``bytes_moved`` contribution
    (``nbytes * p``) by the deepest level each participant's payload
    crosses: node leaders are attributed to the inter-node level, all
    other ranks to the intra-node level — so
    ``intra_bytes + inter_bytes == nbytes * p`` always, whatever the
    algorithm (the conservation property tested in
    ``tests/test_hierarchical_collectives.py``).
    """

    time: float
    intra_messages: int = 0
    inter_messages: int = 0
    intra_bytes: float = 0.0
    inter_bytes: float = 0.0


@dataclass(frozen=True)
class CollectiveModel:
    """Base class; concrete models pick links and algorithms.

    ``overlap_efficiency`` models how well a *nonblocking* collective
    progresses while the issuing rank computes (the fraction of wall
    time between issue and ``wait()`` during which the transfer makes
    progress).  Device-resident NCCL collectives run on dedicated
    copy/SM resources and overlap almost perfectly (1.0); host-staged
    MPI without a progress thread mostly advances inside MPI calls, so
    its default is far lower.  The knob only affects the clock
    accounting of ``Communicator.iallreduce`` — blocking
    collectives and all byte/message counters are untouched.
    """

    machine: MachineSpec
    #: fraction of a nonblocking collective that can hide behind compute
    overlap_efficiency: float = 1.0
    #: added latency per switch hop beyond the first leaf level (s);
    #: only applied when a FatTree exposes deeper crossings
    hop_latency: float = 2.0e-7
    #: fractional bandwidth derate at full root-level oversubscription
    #: exposure: bw_eff = bw / (1 + oversub_penalty * core_fraction)
    oversub_penalty: float = 0.5

    def _link(self, spans_nodes: bool) -> LinkSpec:
        raise NotImplementedError

    def _call_overhead(self) -> float:
        raise NotImplementedError

    def link_for(self, topo: CommTopology) -> LinkSpec:
        """Hop-aware link for a communicator's inter-node traffic.

        Without a fat tree — or when the members share one leaf switch —
        this is exactly the flat model's link object, so the modeled
        charges are bit-identical to the seed.  Deeper crossings add
        ``hop_latency`` per extra switch hop and derate bandwidth by the
        root-level oversubscription exposure.
        """
        base = self._link(topo.spans_nodes)
        extra_hops = max(0, topo.max_hops - 2)
        if extra_hops == 0 and topo.core_fraction == 0.0:
            return base
        return LinkSpec(
            name=f"{base.name}+{topo.max_hops}hop",
            latency=base.latency + self.hop_latency * extra_hops,
            bandwidth=base.bandwidth
            / (1.0 + self.oversub_penalty * topo.core_fraction),
        )

    def allreduce(self, nbytes: float, p: int, spans_nodes: bool, *,
                  link: LinkSpec | None = None) -> float:
        raise NotImplementedError

    def bcast(self, nbytes: float, p: int, spans_nodes: bool, *,
              link: LinkSpec | None = None) -> float:
        raise NotImplementedError

    def allgather(self, nbytes_per_rank: float, p: int, spans_nodes: bool, *,
                  link: LinkSpec | None = None) -> float:
        """Ring allgather of p blocks of nbytes_per_rank each."""
        if p <= 1:
            return self._call_overhead()
        if link is None:
            link = self._link(spans_nodes)
        steps = p - 1
        return (
            self._call_overhead()
            + steps * link.latency
            + steps * nbytes_per_rank / link.bandwidth
        )

    def reduce(self, nbytes: float, p: int, spans_nodes: bool, *,
               link: LinkSpec | None = None) -> float:
        # binomial-tree reduce; same leading cost as bcast
        return self.bcast(nbytes, p, spans_nodes, link=link)

    # -- flat binomial-tree variants (the ``tree`` CollectiveAlgo) ----------
    def tree_bcast(self, nbytes: float, p: int, spans_nodes: bool, *,
                   link: LinkSpec | None = None) -> float:
        """Binomial-tree broadcast: ``ceil(log2 p)`` rounds of the full
        payload — latency-optimal, bandwidth-suboptimal."""
        if p <= 1:
            return self._call_overhead()
        if link is None:
            link = self._link(spans_nodes)
        rounds = _log2ceil(p)
        return self._call_overhead() + rounds * link.time(nbytes)

    def tree_allreduce(self, nbytes: float, p: int, spans_nodes: bool, *,
                       link: LinkSpec | None = None) -> float:
        """Binomial reduce-to-root followed by a binomial broadcast."""
        if p <= 1:
            return self._call_overhead()
        if link is None:
            link = self._link(spans_nodes)
        rounds = _log2ceil(p)
        return self._call_overhead() + 2 * rounds * link.time(nbytes)


@dataclass(frozen=True)
class MpiModel(CollectiveModel):
    """Host-side MPI collectives (Open MPI defaults).

    Besides the alpha-beta terms, large-message MPI collectives lose
    effective bandwidth as the communicator grows (host-memory staging of
    intermediate buffers, switch contention, no GPUDirect): modeled as

        bw_eff(p) = bw / (1 + kappa * max(0, log2(p) - 1))

    This degradation — absent from the NCCL ring, which keeps the wire
    saturated — is what makes ChASE(STD)'s weak-scaling curve climb from
    5.1 s to 16 s while ChASE(NCCL) stays nearly flat (paper Fig. 3a).
    """

    #: host-staged MPI progresses mainly inside MPI calls (no async
    #: progress thread): only ~1/3 of a nonblocking collective hides
    overlap_efficiency: float = 0.35

    #: bandwidth degradation per doubling of the communicator
    congestion: float = 0.55

    def _link(self, spans_nodes: bool) -> LinkSpec:
        # Intra-node traffic uses MPI's shared-memory transport (faster
        # than IB, far slower than NVLink since it crosses host memory).
        return self.machine.ib_mpi if spans_nodes else self.machine.shm_mpi

    def _bw(self, p: int, link: LinkSpec) -> float:
        return link.bandwidth / (
            1.0 + self.congestion * max(0.0, math.log2(p) - 1.0)
        )

    def _call_overhead(self) -> float:
        return self.machine.mpi_call_overhead

    def allreduce(self, nbytes: float, p: int, spans_nodes: bool, *,
                  link: LinkSpec | None = None) -> float:
        if p <= 1:
            return self._call_overhead()
        if link is None:
            link = self._link(spans_nodes)
        bw = self._bw(p, link)
        rounds = math.ceil(math.log2(p))
        t = 2 * rounds * link.latency + 2 * nbytes * (p - 1) / p / bw
        if not _is_pow2(p):
            # extra pre/post round to shrink to the nearest power of two
            t += 2 * link.latency + nbytes / bw
        return self._call_overhead() + t

    def bcast(self, nbytes: float, p: int, spans_nodes: bool, *,
              link: LinkSpec | None = None) -> float:
        # broadcast trees move each byte once per hop and do not suffer
        # the allreduce's host-side reduction staging: no congestion term
        if p <= 1:
            return self._call_overhead()
        if link is None:
            link = self._link(spans_nodes)
        bw = link.bandwidth
        rounds = math.ceil(math.log2(p))
        if nbytes <= _EAGER_LIMIT:
            t = rounds * (link.latency + nbytes / bw)
        else:
            # scatter + ring allgather
            t = (
                rounds * link.latency
                + nbytes * (p - 1) / p / bw  # scatter
                + (p - 1) * link.latency
                + nbytes * (p - 1) / p / bw  # allgather
            )
        return self._call_overhead() + t


@dataclass(frozen=True)
class NcclModel(CollectiveModel):
    """Device-side NCCL collectives over NVLink / GPUDirect InfiniBand."""

    def _link(self, spans_nodes: bool) -> LinkSpec:
        return self.machine.ib_nccl if spans_nodes else self.machine.nvlink

    def _call_overhead(self) -> float:
        return self.machine.nccl_call_overhead

    def allreduce(self, nbytes: float, p: int, spans_nodes: bool, *,
                  link: LinkSpec | None = None) -> float:
        if p <= 1:
            return self._call_overhead()
        if link is None:
            link = self._link(spans_nodes)
        steps = 2 * (p - 1)
        t = steps * link.latency + 2 * nbytes * (p - 1) / p / link.bandwidth
        return self._call_overhead() + t

    def bcast(self, nbytes: float, p: int, spans_nodes: bool, *,
              link: LinkSpec | None = None) -> float:
        if p <= 1:
            return self._call_overhead()
        if link is None:
            link = self._link(spans_nodes)
        # pipelined ring broadcast: latency of p-1 hops, bandwidth-bound body
        t = (p - 1) * link.latency + nbytes / link.bandwidth
        return self._call_overhead() + t


# ---------------------------------------------------------------------------
# algorithm routing
# ---------------------------------------------------------------------------

#: legacy per-op modeled message counts (what CommStats.messages records)
_LEVEL_MESSAGES = {
    "allreduce": lambda k: 2 * _log2ceil(k),
    "bcast": lambda k: _log2ceil(k),
    "allgather": lambda k: max(k - 1, 0),
}


def _level_split(op: str, nbytes: float, p: int,
                 topo: CommTopology, hierarchical: bool
                 ) -> tuple[int, int, float, float]:
    """(intra_msgs, inter_msgs, intra_bytes, inter_bytes) of one call.

    Bytes split the legacy ``nbytes * p`` attribution by the deepest
    level each participant's payload crosses (leaders -> inter), so the
    two counters always sum to the legacy total.
    """
    msgs = _LEVEL_MESSAGES[op]
    if not topo.spans_nodes:
        return msgs(p), 0, nbytes * p, 0.0
    if not hierarchical:
        return 0, msgs(p), 0.0, nbytes * p
    n_leaders = topo.n_nodes
    intra_msgs = sum(msgs(s) for s in topo.local_sizes if s > 1)
    return (
        intra_msgs,
        msgs(n_leaders),
        nbytes * (len(topo.nodes) - n_leaders),
        nbytes * n_leaders,
    )


def _flat_time(model: CollectiveModel, op: str, nbytes: float, p: int,
               topo: CommTopology, algo: CollectiveAlgo) -> float:
    """Single-level cost with hop-aware link selection."""
    link = model.link_for(topo)
    spans = topo.spans_nodes
    # bit-identity fast path: link_for returns the seed link object when
    # no tree is attached (or no deep crossing), and passing link=None
    # makes each model pick exactly that link internally
    if link is model._link(spans):
        link = None
    if op == "allreduce":
        if algo is CollectiveAlgo.TREE:
            return model.tree_allreduce(nbytes, p, spans, link=link)
        return model.allreduce(nbytes, p, spans, link=link)
    if op == "bcast":
        if algo is CollectiveAlgo.TREE:
            return model.tree_bcast(nbytes, p, spans, link=link)
        return model.bcast(nbytes, p, spans, link=link)
    if op == "allgather":
        # no tree variant of allgather: every block must travel anyway
        return model.allgather(nbytes, p, spans, link=link)
    raise KeyError(f"unknown collective op {op!r}")


def _hierarchical_time(model: CollectiveModel, op: str, nbytes: float,
                       p: int, topo: CommTopology) -> float:
    """Two-level cost: intra-node phase(s) + inter-node leader phase.

    The intra phases run concurrently across nodes, so the critical path
    charges the *largest* node group; the leader phase pays the
    hop-aware inter-node link.  On a single node this degrades to the
    flat cost exactly (callers guarantee ``topo.spans_nodes``).
    """
    m = topo.max_local          # largest on-node group (critical path)
    n_leaders = topo.n_nodes
    inter = model.link_for(topo)
    if op == "allreduce":
        t = model.allreduce(nbytes, n_leaders, True, link=inter)
        if m > 1:
            t += model.reduce(nbytes, m, False)
            t += model.bcast(nbytes, m, False)
        return t
    if op == "bcast":
        t = model.bcast(nbytes, n_leaders, True, link=inter)
        if m > 1:
            t += model.bcast(nbytes, m, False)
        return t
    if op == "allgather":
        # gather node-local blocks, allgather the node aggregates among
        # leaders, then push the foreign blocks down inside each node
        t = model.allgather(nbytes * m, n_leaders, True, link=inter)
        if m > 1:
            t += model.allgather(nbytes, m, False)
            t += model.bcast(nbytes * (p - m), m, False)
        return t
    raise KeyError(f"unknown collective op {op!r}")


def collective_cost(model: CollectiveModel, op: str, nbytes: float, p: int,
                    topo: CommTopology | None = None,
                    algo: CollectiveAlgo | str | None = None,
                    ) -> CollectiveCharge:
    """Cost one collective under the selected algorithm and topology.

    ``op`` is ``allreduce`` / ``bcast`` / ``allgather``; ``topo`` may be
    ``None`` (single-level boolean view, as the seed model) and ``algo``
    defaults to :attr:`CollectiveAlgo.RING` — with both at their
    defaults the returned time is bit-identical to
    ``model.<op>(nbytes, p, topo.spans_nodes)``.
    """
    algo = CollectiveAlgo.parse(algo)
    if topo is None:
        topo = CommTopology([0] * p)
    hier_eligible = topo.spans_nodes
    if algo is CollectiveAlgo.HIERARCHICAL and hier_eligible:
        time = _hierarchical_time(model, op, nbytes, p, topo)
        hierarchical = True
    elif algo is CollectiveAlgo.AUTO:
        flat = _flat_time(model, op, nbytes, p, topo, CollectiveAlgo.RING)
        tree = _flat_time(model, op, nbytes, p, topo, CollectiveAlgo.TREE)
        time, hierarchical = min(flat, tree), False
        if hier_eligible:
            hier = _hierarchical_time(model, op, nbytes, p, topo)
            if hier < time:
                time, hierarchical = hier, True
    else:
        # RING, TREE, or HIERARCHICAL degraded to flat on a single node
        flat_algo = algo if algo is CollectiveAlgo.TREE else CollectiveAlgo.RING
        time = _flat_time(model, op, nbytes, p, topo, flat_algo)
        hierarchical = False
    intra_m, inter_m, intra_b, inter_b = _level_split(
        op, nbytes, p, topo, hierarchical
    )
    return CollectiveCharge(
        time=time,
        intra_messages=intra_m,
        inter_messages=inter_m,
        intra_bytes=intra_b,
        inter_bytes=inter_b,
    )
