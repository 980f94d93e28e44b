"""Pluggable transport layer: the data plane behind :class:`Communicator`.

DESIGN.md §5h.  The orchestrated runtime keeps one control plane — the
main thread walks the solver, charges every modeled cost, and records
CommStats; that is what makes the cost model the *oracle*.  What this
module makes pluggable is the **data plane**: who actually moves the
multivector payloads and who runs the rank-local arithmetic when a
collective executes.

Two backends conform to the :class:`Transport` interface:

* ``orchestrated`` (default) — the seed behavior: the main thread moves
  the buffers in process.  Bit-identical to every previous release.
* ``mp`` (:mod:`repro.runtime.mp_backend`) — one OS **process** per
  rank (a leaf program launched by path), shared-memory segments for
  multivector exchange and a NCCL-style UniqueId rendezvous;
  collectives only, no BLAS in workers.

Construction idiom (after the DGL NCCL wrapper, SNIPPETS.md snippet 2):
a transport is built from ``(unique_id, rank, size)``-style state once
per cluster, and every communicator derives a lightweight
:class:`TransportGroup` over its member ranks — one collective API,
interchangeable backends.

**Oracle parity.**  Every group keeps its own :class:`TransportStats`
wire account, measured independently at execution time: payload bytes
are re-measured from the buffers the data plane was handed, message
counts are re-derived from the wire schedule, and the per-level split
is re-attributed from the member topology.  :func:`assert_transport_parity` then checks the account
against the communicator's modeled CommStats *exactly* — a backend
that moves different bytes than the model charged fails loudly.  The
numeric contract is stronger still: every backend reduces in rank
order with the orchestrated accumulation order, so results are
bit-identical across backends (asserted by
``tests/test_backend_conformance.py``).
"""

from __future__ import annotations

import math
from numbers import Number

import numpy as np

from repro.arrays import is_phantom, nbytes_of
from repro.perfmodel.collectives import collective_cost
from repro.runtime.backend import CommBackend
from repro.runtime.faults import FaultError

__all__ = [
    "TRANSPORTS",
    "COMM_MODELS",
    "BACKEND_TOKENS",
    "Transport",
    "TransportGroup",
    "TransportStats",
    "TransportError",
    "TransportDeadRankError",
    "TransportTimeoutError",
    "TransportParityError",
    "OrchestratedTransport",
    "parse_transport",
    "split_backend",
    "create_transport",
    "transport_parity_report",
    "assert_transport_parity",
    "schedule_messages",
]

#: conforming backend names, in seed-equivalence order
TRANSPORTS = ("orchestrated", "mp")

#: ``--backend`` names of the communication models: the enum values,
#: with the paper's STD build under its shorthand ``mpi``
COMM_MODELS = {
    "mpi" if b is CommBackend.MPI_STAGED else b.value: b for b in CommBackend
}

#: every ``--backend`` token: communication models plus transports
BACKEND_TOKENS = tuple(COMM_MODELS) + TRANSPORTS


class TransportError(FaultError):
    """Base class for transport data-plane failures (typed, never a hang)."""


class TransportDeadRankError(TransportError):
    """A backend rank's process died or stopped responding."""

    def __init__(self, ranks, how: str | None = None):
        self.ranks = [int(r) for r in ranks]
        super().__init__(
            f"mp backend rank(s) {self.ranks} died or stopped responding"
            + (f" ({how})" if how else ""))


class TransportTimeoutError(TransportError):
    """A data-plane operation exceeded its deadline (deadlock guard)."""


class TransportParityError(TransportError):
    """Real wire traffic diverged from the modeled CommStats oracle."""


def parse_transport(name: str | None) -> str:
    """Normalize a backend name; ``None`` (or empty) is ``orchestrated``
    — the seed execution, bit-identical charges and numerics."""
    name = str(name or "").strip().lower() or "orchestrated"
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown execution backend {name!r}; expected one of {TRANSPORTS}"
        )
    return name


def split_backend(token) -> tuple[CommBackend, str | None]:
    """``(comm model, execution transport)`` of one ``--backend`` token.

    The one reading of the token shared by ``VirtualCluster(backend=)``,
    ``repro solve|serve|tune --backend`` and campaign specs: a
    communication-model name (:data:`COMM_MODELS`, or a
    :class:`CommBackend` value) picks the cost model and leaves the
    transport to the caller (``None``); a transport token
    (:data:`TRANSPORTS`) picks the execution backend and models NCCL
    communication.
    """
    name = str(token).strip().lower()
    if name in TRANSPORTS:
        return CommBackend.NCCL, name
    try:
        return COMM_MODELS.get(name) or CommBackend(name), None
    except ValueError:
        raise ValueError(
            f"unknown backend {token!r}; expected one of {BACKEND_TOKENS}"
        ) from None


def schedule_messages(op: str, p: int) -> int:
    """Modeled point-to-point messages of one wire collective.

    Deliberately re-derived at the transport layer (not read back from
    CommStats) so the parity check compares two independent accounts:
    recursive doubling for the allreduce (reduce-scatter + allgather
    halves), a binomial tree for the broadcast, a ring for the
    allgather — the same schedules the cost model assumes.
    """
    if p <= 1:
        return 0
    if op == "allreduce":
        return 2 * math.ceil(math.log2(p))
    if op == "bcast":
        return math.ceil(math.log2(max(p, 2)))
    if op == "allgather":
        return p - 1
    raise ValueError(f"unknown wire collective {op!r}")


class TransportStats:
    """Wire-side mirror of :class:`~repro.runtime.communicator.CommStats`.

    Recorded by the :class:`TransportGroup` at execution time from what
    the data plane actually moved; compared field-for-field against the
    modeled CommStats by :func:`assert_transport_parity`.
    """

    __slots__ = ("collectives", "messages", "bytes_moved",
                 "intra_messages", "inter_messages",
                 "intra_bytes", "inter_bytes")

    def __init__(self) -> None:
        self.collectives = 0
        self.messages = 0
        self.bytes_moved = 0.0
        self.intra_messages = 0
        self.inter_messages = 0
        self.intra_bytes = 0.0
        self.inter_bytes = 0.0

    def as_tuple(self) -> tuple[int, int, float]:
        """Legacy triple, comparable to ``CommStats.as_tuple()``."""
        return (self.collectives, self.messages, self.bytes_moved)

    def levels_tuple(self) -> tuple[int, int, float, float]:
        """Per-level counters, comparable to ``CommStats.levels_tuple()``."""
        return (self.intra_messages, self.inter_messages,
                self.intra_bytes, self.inter_bytes)


def _wire_nbytes(buffers) -> float:
    """Per-participant wire bytes of one collective, measured from the
    buffers the data plane was handed."""
    b0 = buffers[0]
    if isinstance(b0, Number):
        return 8.0
    return float(nbytes_of(b0))


def _dedup_in_rank_order(buffers) -> list:
    """Unique ndarray contributions, first-occurrence (rank) order."""
    seen: set[int] = set()
    unique = []
    for b in buffers:
        if id(b) not in seen:
            seen.add(id(b))
            unique.append(b)
    return unique


class TransportGroup:
    """One communicator's view of a transport's data plane.

    The group performs the *numeric movement* of each collective — the
    modeled charges, staging and barrier-entry clock synchronization
    stay in :class:`~repro.runtime.communicator.Communicator` — and
    keeps the independent :class:`TransportStats` wire account.  The
    base class implements the orchestrated (in-process) movement with
    the exact seed accumulation order; subclasses override the
    ``_plane_*`` hooks to hand the movement to their rank team and MUST
    preserve that order bit for bit.
    """

    def __init__(self, transport: "Transport | None", member_ids):
        self.transport = transport
        self.member_ids = tuple(int(r) for r in member_ids)
        self.stats = TransportStats()
        self._comm = None  # bound by the owning Communicator

    # -- binding / accounting ---------------------------------------------------
    def bind(self, comm) -> None:
        """Attach the owning communicator (model/topology/algo source)."""
        self._comm = comm

    def record_wire(self, op: str, buffers, nbytes: float | None = None,
                    messages: int | None = None) -> None:
        """Account one executed collective from the data plane's side.

        ``nbytes`` overrides the per-participant measurement (the
        allgather's mean-block v-collective convention) and ``messages``
        the schedule count (the v1.2 gather-by-broadcasts pattern, which
        books ``ceil(log2(max(p, 2)))`` even on one rank); otherwise the
        wire bytes are measured from ``buffers[0]``.  Level attribution
        re-routes the measured bytes through the shared
        topology/algorithm splitter, so it matches the modeled
        CommStats iff the data plane moved the modeled bytes.
        """
        p = len(self.member_ids)
        if nbytes is None:
            nbytes = _wire_nbytes(buffers)
        self.stats.collectives += 1
        self.stats.messages += (
            schedule_messages(op, p) if messages is None else messages
        )
        self.stats.bytes_moved += nbytes * p
        comm = self._comm
        if comm is not None:
            charge = collective_cost(
                comm.model, op, nbytes, p, comm.topology, comm.algo
            )
            self.stats.intra_messages += charge.intra_messages
            self.stats.inter_messages += charge.inter_messages
            self.stats.intra_bytes += charge.intra_bytes
            self.stats.inter_bytes += charge.inter_bytes

    # -- data-plane hooks (overridden by real backends) --------------------------
    def _plane_allreduce(self, unique: list, shared: bool, out) -> np.ndarray:
        """Rank-ordered SUM of ``unique`` into ``out`` (``unique[0]`` when
        ``shared``, else a fresh copy of ``unique[0]``); returns the total."""
        for b in unique[1:]:
            out += b
        return out

    def _plane_scatter(self, buffers, total) -> None:
        """Write the reduced ``total`` back into every participant's buffer
        (the in-place MPI_IN_PLACE convention of the non-shared path)."""
        for b in buffers:
            b[...] = total

    def _plane_bcast(self, buffers, root: int) -> None:
        """Copy the root's buffer into every other participant's buffer."""
        src = buffers[root]
        for i, b in enumerate(buffers):
            if i != root:
                b[...] = src

    def _plane_allgather(self, buffers) -> None:
        """Fan every block in; orchestrated movement is the no-op (the
        result lists share the published objects)."""

    def _plane_barrier(self) -> None:
        """Synchronize the rank team (liveness probe for real backends)."""

    # -- collective movement (called by Communicator after charging) -------------
    def allreduce_move(self, buffers, scalar: bool, shared: bool,
                       compute: bool) -> list:
        """The numeric part of a SUM-allreduce (rank-ordered, in place).

        One accumulation order for every backend — ``total = b0; total
        += b1; ...`` over the rank-ordered unique contributions — so
        dedup'd and multiprocess executions are bit-identical to the seed
        path.
        """
        size = len(self.member_ids)
        if not compute:
            return list(buffers)
        if scalar:
            total = sum(buffers)
            return [total] * size
        if is_phantom(buffers[0]):
            return list(buffers)
        if shared:
            unique = _dedup_in_rank_order(buffers)
            total = self._plane_allreduce(unique, True, unique[0])
            return [total] * size
        total = self._plane_allreduce(list(buffers), False, buffers[0].copy())
        self._plane_scatter(buffers, total)
        return list(buffers)

    def bcast_move(self, buffers, scalar: bool, root: int, shared: bool,
                   compute: bool) -> list:
        """The numeric part of a broadcast (root's block into every buffer)."""
        size = len(self.member_ids)
        if not compute:
            return list(buffers)
        if scalar:
            return [buffers[root]] * size
        if is_phantom(buffers[0]):
            return list(buffers)
        if shared:
            return [buffers[root]] * size
        self._plane_bcast(buffers, root)
        return list(buffers)

    def allgather_move(self, buffers) -> list:
        """The numeric part of an allgather (every rank sees all blocks)."""
        size = len(self.member_ids)
        if buffers and not isinstance(buffers[0], Number) \
                and not is_phantom(buffers[0]):
            self._plane_allgather(buffers)
        return [list(buffers) for _ in range(size)]

    def barrier_sync(self) -> None:
        """Data-plane barrier round (clock sync stays in the Communicator)."""
        self._plane_barrier()


class Transport:
    """A data-plane backend shared by every communicator of one cluster.

    Subclasses own the real resources (worker processes, shared-memory
    segments) and hand out per-communicator :class:`TransportGroup`
    views over arbitrary member subsets — row/column communicators,
    shrunk survivor grids, replica groups.
    """

    name = "orchestrated"

    def __init__(self, n_ranks: int):
        self.n_ranks = int(n_ranks)
        self.groups: list[TransportGroup] = []

    def group(self, member_ids) -> TransportGroup:
        g = self._make_group(member_ids)
        self.groups.append(g)
        return g

    def _make_group(self, member_ids) -> TransportGroup:
        return TransportGroup(self, member_ids)

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class OrchestratedTransport(Transport):
    """The in-process default: main thread moves every buffer (seed)."""

    name = "orchestrated"


def create_transport(name: str | None, n_ranks: int, **kw) -> Transport:
    """Build a transport backend by name (``None`` → ``orchestrated``).

    ``kw`` is forwarded to the backend constructor (e.g. the mp
    backend's ``timeout``/``unique_id``).
    """
    name = parse_transport(name)
    if name == "orchestrated":
        return OrchestratedTransport(n_ranks)
    from repro.runtime.mp_backend import MpTransport

    return MpTransport(n_ranks, **kw)


def transport_parity_report(grid) -> list[tuple[str, tuple, tuple]]:
    """Modeled-vs-wire mismatches of every communicator on ``grid``.

    Returns ``(label, modeled, recorded)`` triples — empty when the data
    plane executed exactly the modeled traffic.  Both the legacy triple
    and the per-level split must agree.
    """
    mismatches = []
    comms = [(f"row{i}", grid.row_comm(i)) for i in range(grid.p)]
    comms += [(f"col{j}", grid.col_comm(j)) for j in range(grid.q)]
    for label, comm in comms:
        tg = comm.transport_group
        modeled = comm.stats.as_tuple() + comm.stats.levels_tuple()
        wire = tg.stats.as_tuple() + tg.stats.levels_tuple()
        if modeled != wire:
            mismatches.append((label, modeled, wire))
    return mismatches


def assert_transport_parity(grid) -> None:
    """Raise :class:`TransportParityError` unless wire == modeled CommStats."""
    mismatches = transport_parity_report(grid)
    if mismatches:
        lines = [
            f"{label}: modeled={modeled} wire={wire}"
            for label, modeled, wire in mismatches
        ]
        raise TransportParityError(
            "transport wire account diverged from modeled CommStats:\n"
            + "\n".join(lines)
        )
