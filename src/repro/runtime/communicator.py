"""Collective communication over a set of simulated ranks.

Semantics follow MPI/NCCL: all participants provide equally-shaped
buffers; the collective both **moves the real data** (numeric mode) and
**charges modeled time** onto every participant's clock.  Participants
are synchronized at entry (barrier semantics: entry time = max of the
participants' clocks) — this is what turns per-rank charges into a
correct parallel makespan.

Backend behaviour (paper Sec. 3.3):

* ``MPI_STAGED`` (ChASE-STD) — each rank stages the payload
  device->host before the MPI call and host->device after it (charged
  as DATAMOVE), then pays the MPI collective model (charged as COMM);
* ``NCCL`` — no staging; NCCL ring model charged as COMM;
* ``MPI_HOST`` — no staging (buffers already on the host).

Nonblocking collectives (DESIGN.md §5d — a public, unit-tested API that
no solve in the library calls since the pipelined filter was deleted):
:meth:`Communicator.iallreduce` returns a :class:`CollectiveRequest`
whose ``wait()`` settles the clock accounting.  The operation cannot
start before every participant has issued it (entry time = max of the
issue-time clocks, exactly the blocking barrier semantics) and runs for
the *same* modeled duration ``d`` as the blocking call; the part of
``d`` that fits into ``overlap_efficiency x (wait_time - entry_time)``
is *hidden* behind the compute charged in between (booked as
``COMM_HIDDEN``, no clock advance) and only the remainder is *exposed*
(charged as ``COMM``).  ``hidden + exposed == d`` always, so at overlap
efficiency 0 — or with ``wait()`` called immediately — the accounting
is bit-identical to the blocking collective.
"""

from __future__ import annotations

import dataclasses
import math
from numbers import Number

import numpy as np

from repro.arrays import is_phantom, nbytes_of
from repro.perfmodel.collectives import (
    CollectiveAlgo,
    CollectiveCharge,
    CommTopology,
    collective_cost,
)
from repro.perfmodel.topology import FatTree
from repro.runtime.clock import CostCategory
from repro.runtime.faults import CollectiveError, RankDeathError
from repro.runtime.rank import RankContext, RankGroup
from repro.runtime.transport import TransportGroup

__all__ = ["Communicator", "CommStats", "CollectiveRequest"]


class CommStats:
    """Message/byte counters for one communicator.

    These counters back the paper's Sec. 2.3 argument quantitatively:
    the v1.2 gather-by-broadcasts pattern's *message count* grows with
    the communicator while the new scheme's stays constant.

    The legacy triple (``collectives``, ``messages``, ``bytes_moved``)
    is algorithm-independent: it records the collective *sequence* the
    program issued, with the flat modeled message counts, whatever
    :class:`~repro.perfmodel.collectives.CollectiveAlgo` is costing it —
    so :meth:`as_tuple` stays comparable across every execution mode
    and algorithm.  The per-level counters (``intra_*``/``inter_*``)
    additionally attribute each collective to the switch levels the
    *selected* algorithm actually exercises;
    ``intra_bytes + inter_bytes == bytes_moved`` always.
    """

    __slots__ = ("collectives", "messages", "bytes_moved",
                 "intra_messages", "inter_messages",
                 "intra_bytes", "inter_bytes")

    def __init__(self) -> None:
        self.collectives = 0   # collective operations issued
        self.messages = 0      # modeled point-to-point messages inside them
        self.bytes_moved = 0.0 # payload bytes per participant, summed
        self.intra_messages = 0   # modeled messages on intra-node links
        self.inter_messages = 0   # modeled messages on inter-node links
        self.intra_bytes = 0.0    # bytes_moved share attributed intra-node
        self.inter_bytes = 0.0    # bytes_moved share attributed inter-node

    def record(self, nbytes: float, p: int, messages: int,
               charge: CollectiveCharge | None = None) -> None:
        """Account one collective of ``nbytes`` payload over ``p`` ranks.

        ``charge`` (the routed cost, when the caller has one) carries
        the per-level attribution; without it the level counters are
        left untouched (external callers that only track the legacy
        triple).
        """
        self.collectives += 1
        self.messages += messages
        self.bytes_moved += nbytes * p
        if charge is not None:
            self.intra_messages += charge.intra_messages
            self.inter_messages += charge.inter_messages
            self.intra_bytes += charge.intra_bytes
            self.inter_bytes += charge.inter_bytes

    def as_tuple(self) -> tuple[int, int, float]:
        """``(collectives, messages, bytes_moved)`` — comparable snapshot.

        The execution-mode invariant (DESIGN.md §5b/§5c) is asserted by
        comparing these tuples across runs: every mode must issue the
        identical collective sequence.  The tuple layout is frozen —
        new counters go to :meth:`levels_tuple`, never here.
        """
        return (self.collectives, self.messages, self.bytes_moved)

    def levels_tuple(self) -> tuple[int, int, float, float]:
        """``(intra_messages, inter_messages, intra_bytes, inter_bytes)``."""
        return (self.intra_messages, self.inter_messages,
                self.intra_bytes, self.inter_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommStats(collectives={self.collectives}, "
            f"messages={self.messages}, bytes={self.bytes_moved:.3g}, "
            f"intra/inter bytes={self.intra_bytes:.3g}/{self.inter_bytes:.3g})"
        )


class CollectiveRequest:
    """Handle for one in-flight nonblocking allreduce (MPI request).

    Created by :meth:`Communicator.iallreduce`.
    The request remembers the entry time (max of the participants' clocks
    at issue — the collective cannot start earlier) and the blocking-model
    duration ``d``.  :meth:`wait` settles the accounting per rank:

    * the rank first idles forward to the entry time (other participants
      may not have issued yet — the blocking barrier semantics);
    * of ``d``, ``min(d, f * (wait_clock - entry))`` is **hidden** — it
      progressed at overlap efficiency ``f`` behind the compute charged
      between issue and wait — and is booked as ``COMM_HIDDEN`` without
      advancing the clock;
    * the remainder is **exposed** and charged as ``COMM``.

    ``hidden + exposed == d`` on every rank for every ``f``, so the
    communication *volume* always matches the blocking collective; only
    its placement on the clock changes.  Data movement (the numeric
    reduction) happens at :meth:`wait`, with exactly the
    blocking path's accumulation order — results are bit-identical.

    ``wait()`` is idempotent (subsequent calls return the cached result);
    :meth:`test` probes completability without charging anything.
    """

    __slots__ = ("_comm", "_buffers", "_nbytes", "_scalar",
                 "_duration", "_t_entry", "_shared", "_compute",
                 "_stage_seconds", "_done", "_result")

    def __init__(self, comm: "Communicator", buffers, nbytes: float,
                 scalar: bool, duration: float, t_entry: float, *,
                 shared: bool = False, compute: bool = True,
                 stage_seconds: float | None = None):
        self._comm = comm
        self._buffers = buffers
        self._nbytes = nbytes
        self._scalar = scalar
        self._duration = duration
        self._t_entry = t_entry
        self._shared = shared
        self._compute = compute
        self._stage_seconds = stage_seconds
        self._done = False
        self._result = None

    @classmethod
    def _completed(cls, comm: "Communicator", result) -> "CollectiveRequest":
        """An already-satisfied request (single-rank communicators)."""
        req = cls(comm, [], 0.0, False, 0.0, 0.0)
        req._done = True
        req._result = result
        return req

    @property
    def complete(self) -> bool:
        """Whether :meth:`wait` has already settled this request."""
        return self._done

    @property
    def duration(self) -> float:
        """Blocking-model duration ``d`` of the underlying collective."""
        return self._duration

    @property
    def entry_time(self) -> float:
        """Earliest time the collective could start (max issue clock)."""
        return self._t_entry

    def test(self) -> bool:
        """True when ``wait()`` would expose no communication.

        At the participants' *current* clocks, the collective has fully
        progressed behind their compute (``f * elapsed >= d`` on every
        rank).  Purely advisory — charges nothing, moves nothing.
        """
        if self._done:
            return True
        f = self._comm.overlap_efficiency
        d = self._duration
        clocks = self._comm.cluster.clocks
        return all(
            f * max(0.0, clocks[r] - self._t_entry) >= d
            for r in self._comm.group.ids
        )

    def wait(self):
        """Complete the collective: charge exposed/hidden time, move data."""
        if self._done:
            return self._result
        self._done = True
        comm = self._comm
        cluster, ids = comm.cluster, comm.group.ids
        f = comm.overlap_efficiency
        d = self._duration
        t0 = self._t_entry
        cluster.sync(ids, t0)  # idle until all entered
        clocks = cluster.clocks
        hidden = [min(d, f * (clocks[r] - t0)) for r in ids]
        # a rank with nothing hidden (or nothing exposed) is not charged
        # the zero: it would show as an empty interval on a Timeline
        hid = [(r, h) for r, h in zip(ids, hidden) if h > 0.0]
        if hid:
            cluster.book_hidden([r for r, _ in hid], [h for _, h in hid], t0)
        exp = [(r, d - h) for r, h in zip(ids, hidden) if d - h > 0.0]
        if exp:
            cluster.charge([r for r, _ in exp], CostCategory.COMM,
                           [e for _, e in exp])
        comm._stage(self._nbytes, "h2d", seconds=self._stage_seconds)
        self._result = comm._allreduce_move(
            self._buffers, self._scalar, self._shared, self._compute
        )
        self._buffers = []  # release references
        return self._result


class Communicator:
    """An ordered group of ranks, analogous to an MPI/NCCL communicator.

    ``tree`` (a :class:`FatTree`, usually inherited from the owning
    :class:`~repro.runtime.cluster.VirtualCluster`) enables hop-aware
    link costing; ``algo`` selects the collective algorithm
    (:class:`CollectiveAlgo`; default ``ring`` = the seed models' flat
    behavior, bit-identical charges).  Both affect modeled time and the
    per-level CommStats counters only — data movement and numerics are
    identical under every selection.

    ``transport_group`` (DESIGN.md §5h) is the data plane that performs
    the numeric movement of each collective and keeps the independent
    wire-stats account; ``None`` builds a standalone orchestrated group
    — the seed in-process movement, bit for bit.  The control plane
    (modeled charges, staging, barrier-entry clock sync, CommStats)
    always stays here, whatever the transport.
    """

    def __init__(self, ranks: list[RankContext], *,
                 tree: FatTree | None = None,
                 algo: CollectiveAlgo | str | None = None,
                 transport_group: TransportGroup | None = None):
        if not ranks:
            raise ValueError("communicator needs at least one rank")
        self.ranks = list(ranks)
        backend = ranks[0].backend
        machine = ranks[0].machine
        if any(r.backend is not backend for r in ranks):
            raise ValueError("mixed backends within a communicator")
        self.backend = backend
        self.machine = machine
        self.cluster = ranks[0].cluster
        #: the members, charged in one pass per collective (DESIGN.md §5j)
        self.group = RankGroup(self.cluster, [r.rank_id for r in ranks])
        self.model = backend.collective_model(machine)
        #: CollectiveCharge per (op, nbytes); dropped by the set_* methods
        self._charges: dict[tuple[str, float], CollectiveCharge] = {}
        self.stats = CommStats()
        # membership is immutable: node set, topology profile and the
        # spans-nodes flag are computed once here, not per collective
        self.topology = CommTopology((r.node for r in ranks), tree)
        self.algo = CollectiveAlgo.parse(algo)
        if transport_group is None:
            transport_group = TransportGroup(None, range(len(ranks)))
        elif len(transport_group.member_ids) != len(ranks):
            raise ValueError(
                f"transport group covers {len(transport_group.member_ids)} "
                f"ranks, communicator has {len(ranks)}")
        self.transport_group = transport_group
        transport_group.bind(self)

    # -- topology -----------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of participating ranks."""
        return len(self.ranks)

    @property
    def spans_nodes(self) -> bool:
        """True when the communicator crosses node boundaries (cached)."""
        return self.topology.spans_nodes

    def set_collective_algo(self, algo: CollectiveAlgo | str | None
                            ) -> CollectiveAlgo:
        """Select the collective algorithm; returns the previous one."""
        prev = self.algo
        self.algo = CollectiveAlgo.parse(algo)
        self._charges.clear()
        return prev

    def set_topology(self, tree: FatTree | None) -> None:
        """Attach (or detach, with ``None``) a fat tree for hop-aware costing."""
        self.topology = CommTopology(self.topology.nodes, tree)
        self._charges.clear()

    def _charge_for(self, op: str, nbytes: float) -> CollectiveCharge:
        """Route one collective through the selected algorithm/topology
        (``collective_cost`` is pure and a solve repeats few payload
        sizes: computed once per ``(op, nbytes)``)."""
        charge = self._charges.get((op, nbytes))
        if charge is None:
            charge = self._charges[(op, nbytes)] = collective_cost(
                self.model, op, nbytes, self.size, self.topology, self.algo
            )
        return charge

    def rank_index(self, rank: RankContext) -> int:
        """Position of ``rank`` within this communicator (its root id)."""
        return self.ranks.index(rank)

    # -- fault injection (DESIGN.md §5f) ----------------------------------------------
    def _fault_entry(self, op: str) -> float:
        """Fault hook at collective entry; returns the comm-time multiplier.

        With no injector attached (the default) this returns ``1.0``
        immediately — multiplying every charge by exactly ``1.0`` keeps
        the fault-free path bit-identical to seed.  With an injector:

        * due time-triggered events are activated at the barrier entry
          instant (max participant clock — the moment a real collective
          would observe a peer);
        * a dead participant raises :class:`RankDeathError`;
        * a due transient targeting a participant fails the collective
          ``attempts`` times; each retry charges exponential backoff to
          every participant (RECOVERY category) and the typed
          :class:`CollectiveError` is raised once ``max_retries`` is
          exceeded;
        * the returned multiplier is the largest link-slowdown factor
          active on any participant (1.0 when none).
        """
        inj = self.ranks[0].faults
        if inj is None:
            return 1.0
        now = self._entry_time()
        inj.poll(now)
        dead = inj.dead_among(self.ranks)
        if dead:
            raise RankDeathError(dead)
        attempts, target = inj.transient_attempts(self.ranks, now)
        if attempts:
            self._barrier_entry()  # failed attempts synchronize like a barrier
            for attempt in range(1, attempts + 1):
                if attempt > inj.max_retries:
                    raise CollectiveError(op, target, attempts)
                self.group.charge_recovery(
                    inj.backoff_base * (2.0 ** (attempt - 1)))
                inj.note("retry", op, target, attempt)
            now = self._entry_time()
        return inj.comm_factor(self.ranks, now)

    # -- internals ------------------------------------------------------------------
    def _entry_time(self) -> float:
        """The furthest-ahead member clock: when a collective can start."""
        clocks = self.cluster.clocks
        return max([clocks[r] for r in self.group.ids])

    def _barrier_entry(self) -> None:
        self.cluster.sync(self.group.ids)

    def _check_buffers(self, buffers) -> tuple[float, bool]:
        """Validate one buffer per rank; return (payload bytes, is_scalar)."""
        if len(buffers) != self.size:
            raise ValueError(
                f"expected {self.size} buffers (one per rank), got {len(buffers)}"
            )
        if all(isinstance(b, Number) for b in buffers):
            return 8.0, True
        phantoms = [is_phantom(b) for b in buffers]
        if any(phantoms) and not all(phantoms):
            raise TypeError("mixed phantom/real buffers in one collective")
        shapes = {tuple(b.shape) for b in buffers}
        if len(shapes) != 1:
            raise ValueError(f"buffer shapes differ across ranks: {shapes}")
        return float(nbytes_of(buffers[0])), False

    def _stage(self, nbytes: float, direction: str,
               seconds: float | None = None) -> None:
        """Host staging for the STD backend (skipped when payload is 0).

        ``seconds`` overrides the per-rank PCIe time (a nonblocking
        caller's ``stage_seconds``, e.g. an exact fraction of a
        full-payload copy).
        """
        if not self.backend.stages_through_host or nbytes <= 0:
            return
        if seconds is not None:
            self.group.charge_datamove(seconds)
        else:
            self.group.stage(nbytes, direction)

    def _charge_comm_all(self, dt: float) -> None:
        self.group.charge_comm(dt)

    def _charge_blocking(self, op: str, nbytes: float, messages: int,
                         buffers, *, stage_nbytes: float | None = None,
                         wire_nbytes: float | None = None,
                         wire_messages: int | None = None) -> None:
        """The control plane of one blocking collective, every member in
        one pass: fault hook, CommStats and wire account, host staging
        out, barrier entry, the modeled COMM time, host staging back."""
        fmult = self._fault_entry(op)
        charge = self._charge_for(op, nbytes)
        self.stats.record(nbytes, self.size, messages, charge)
        self.transport_group.record_wire(
            op, buffers, nbytes=wire_nbytes, messages=wire_messages)
        stage_nbytes = nbytes if stage_nbytes is None else stage_nbytes
        self._stage(stage_nbytes, "d2h")
        self._barrier_entry()
        self._charge_comm_all(charge.time * fmult)
        self._stage(stage_nbytes, "h2d")

    # -- overlap knob -------------------------------------------------------------------
    @property
    def overlap_efficiency(self) -> float:
        """Fraction of a nonblocking collective that hides behind compute."""
        return float(getattr(self.model, "overlap_efficiency", 0.0))

    def set_overlap_efficiency(self, f: float) -> float:
        """Override the model's overlap efficiency; returns the old value."""
        f = float(f)
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"overlap efficiency must be in [0, 1], got {f}")
        old = self.overlap_efficiency
        self.model = dataclasses.replace(self.model, overlap_efficiency=f)
        self._charges.clear()
        return old

    # -- data movement (shared by blocking and nonblocking paths) -----------------------
    def _allreduce_move(self, buffers, scalar: bool, shared: bool,
                        compute: bool):
        """The numeric part of a SUM-allreduce, delegated to the transport.

        One implementation for both the blocking call and
        :meth:`CollectiveRequest.wait` — every transport reduces the
        rank-ordered contributions with the same accumulation order, so
        nonblocking and multiprocess execution are bit-identical to
        blocking orchestrated.
        """
        return self.transport_group.allreduce_move(
            buffers, scalar, shared, compute)

    # -- collectives --------------------------------------------------------------------
    def allreduce(self, buffers, op: str = "sum", *, shared: bool = False,
                  compute: bool = True):
        """SUM-allreduce one buffer per rank.

        Real arrays are updated **in place** (so views into larger rank
        buffers work as MPI_IN_PLACE does); scalars and phantoms are
        returned as a new list.  Returns the list of per-rank results.

        ``shared=True`` is the replication-aware fast path: the unique
        contributions are summed once, **into** ``buffers[0]`` (same
        accumulation order as the seed path, so the float result is
        bit-identical), and that single ndarray is returned as every
        rank's result instead of copying the total back into each
        buffer.  All modeled charges, staging and CommStats are
        identical to the default path.

        ``compute=False`` charges the collective (stats, staging,
        barrier, modeled time) without moving any data — used for the
        replica communicators of replication groups whose shared result
        was already produced by their root communicator.
        """
        if op != "sum":
            raise NotImplementedError("only SUM allreduce is used by ChASE")
        nbytes, scalar = self._check_buffers(buffers)
        if self.size == 1:
            return list(buffers)
        self._charge_blocking(
            "allreduce", nbytes, 2 * math.ceil(math.log2(self.size)), buffers)
        return self._allreduce_move(buffers, scalar, shared, compute)

    def bcast(self, buffers, root: int, *, shared: bool = False,
              compute: bool = True):
        """Broadcast the root's buffer into every rank's buffer (in place).

        ``shared=True`` skips the per-replica copies and returns the
        root's ndarray as every rank's result (replication-aware fast
        path); ``compute=False`` charges without moving data.  Charges,
        staging and CommStats are unchanged by either.
        """
        if not 0 <= root < self.size:
            raise IndexError(f"root {root} out of range for size {self.size}")
        nbytes, scalar = self._check_buffers(buffers)
        if self.size == 1:
            return list(buffers)
        self._charge_blocking(
            "bcast", nbytes, math.ceil(math.log2(self.size)), buffers)
        return self.transport_group.bcast_move(
            buffers, scalar, root, shared, compute)

    # -- nonblocking collectives --------------------------------------------------------
    def iallreduce(self, buffers, op: str = "sum", *, shared: bool = False,
                   compute: bool = True, duration: float | None = None,
                   stage_seconds: float | None = None) -> CollectiveRequest:
        """Issue a nonblocking SUM-allreduce; returns a request handle.

        At issue time the collective records its stats (identical message
        and byte counters to the blocking call), performs the d2h staging
        of the STD backend, and captures the entry time — the max of the
        participants' clocks, the earliest instant the transfer can
        start.  No clock advances until :meth:`CollectiveRequest.wait`,
        which splits the blocking-model duration into hidden and exposed
        parts according to ``overlap_efficiency`` and then performs the
        reduction with the blocking path's exact accumulation order.

        ``duration`` overrides the modeled blocking duration ``d`` and
        ``stage_seconds`` the per-rank host-staging time each way, so a
        caller that splits one payload into pieces can charge each piece
        an exact *fraction* of the full-payload collective instead of
        paying the alpha-beta model's per-call constants once per piece.
        """
        if op != "sum":
            raise NotImplementedError("only SUM allreduce is used by ChASE")
        nbytes, scalar = self._check_buffers(buffers)
        if self.size == 1:
            return CollectiveRequest._completed(self, list(buffers))
        fmult = self._fault_entry("iallreduce")
        charge = self._charge_for("allreduce", nbytes)
        self.stats.record(nbytes, self.size,
                          2 * math.ceil(math.log2(self.size)), charge)
        self.transport_group.record_wire("allreduce", buffers)
        self._stage(nbytes, "d2h", seconds=stage_seconds)
        t_entry = self._entry_time()
        d = (charge.time if duration is None else float(duration)) * fmult
        return CollectiveRequest(
            self, list(buffers), nbytes, scalar, d, t_entry,
            shared=shared, compute=compute, stage_seconds=stage_seconds,
        )

    def allgather(self, buffers):
        """Ring allgather; every rank receives the list of all blocks.

        Blocks may have *different* shapes (row-block layouts); the cost
        uses the mean block size, matching a v-collective.
        """
        if len(buffers) != self.size:
            raise ValueError("one buffer per rank required")
        nbytes = float(np.mean([nbytes_of(b) if not isinstance(b, Number) else 8.0
                                for b in buffers]))
        self._charge_blocking(
            "allgather", nbytes, max(self.size - 1, 0), buffers,
            stage_nbytes=nbytes * self.size, wire_nbytes=nbytes)
        return self.transport_group.allgather_move(buffers)

    def allgather_by_bcasts(self, buffers):
        """v1.2-style collection: one broadcast *per participating rank*.

        This reproduces the paper's Sec. 2.3 limitation — "the collection
        is obtained by the individual broadcasting of a buffer for each
        task", so the message count grows linearly with the communicator
        size (when the rank count quadruples, the number of messages
        doubles per row/column communicator).
        """
        if len(buffers) != self.size:
            raise ValueError("one buffer per rank required")
        for root in range(self.size):
            b = buffers[root]
            nbytes = 8.0 if isinstance(b, Number) else float(nbytes_of(b))
            messages = math.ceil(math.log2(max(self.size, 2)))
            self._charge_blocking("bcast", nbytes, messages, buffers,
                                  wire_nbytes=nbytes, wire_messages=messages)
        return self.transport_group.allgather_move(buffers)

    def barrier(self) -> None:
        """Synchronize all participants' clocks (no payload).

        Real backends also run a data-plane barrier round here — a
        liveness probe that turns a hung peer into a typed
        :class:`~repro.runtime.transport.TransportError` instead of a
        deadlock.
        """
        if self.size > 1:
            self._fault_entry("barrier")
            self.transport_group.barrier_sync()
        self._barrier_entry()

    def charge_collective(self, dt: float) -> None:
        """Synchronize participants and charge ``dt`` seconds of COMM.

        Escape hatch for kernels whose *cost* follows a communication
        pattern the simulator does not literally execute (e.g. the
        panel-wise messages of ScaLAPACK HHQR, whose numerics are
        computed directly from the assembled blocks).
        """
        fmult = self._fault_entry("p2p") if self.size > 1 else 1.0
        self._barrier_entry()
        self._charge_comm_all(dt * fmult)

    def stage_all(self, nbytes: float, direction: str) -> None:
        """Charge a host-staging copy on every participant (DATAMOVE)."""
        self.group.stage(nbytes, direction)
