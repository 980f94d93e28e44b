"""The ``mp`` execution backend: one OS process per rank over shared memory.

DESIGN.md §5h.  The orchestrated runtime moves
every payload inside one Python process.  This backend gives
each backend rank a real **spawned process** and moves the collectives'
payloads across process boundaries.  It is a *collectives-only* data
plane: the solver loop and every BLAS kernel stay on the orchestrating
process (under its one multi-threaded pool, :mod:`repro.runtime.blas`);
a worker's whole vocabulary is ``ping`` / ``drop`` / ``reduce`` /
``fetch`` / ``exit`` and it never calls BLAS:

* **Rendezvous** follows the NCCL wrapper idiom (UniqueId + rank/size
  construction): one random :class:`UniqueId` token names the session,
  every shared-memory segment derives its name from ``(token, rank,
  generation)``, and each worker is constructed from ``(token, rank,
  size)`` plus a duplex command pipe.
* **Multivector exchange** goes through
  :mod:`multiprocessing.shared_memory` segments — one growable segment
  per rank, sized to the largest payload seen (power-of-two growth,
  1 MiB floor).  A reduction lands the rank-ordered contributions in
  the member segments, the *root worker* accumulates them in place in
  its own segment (the exact orchestrated accumulation order — the
  bit-identity contract), and the orchestrating process copies the
  total back into the original buffers.  A broadcast is the mirror
  image: root segment in, every non-root worker pulls it across
  process boundaries into its own segment, main copies out.

**Liveness.**  Every reply is awaited in a poll-and-probe loop: a dead
worker process surfaces as a typed
:class:`~repro.runtime.transport.TransportDeadRankError` and a stuck
one as a :class:`~repro.runtime.transport.TransportTimeoutError` —
never a hang (the fault-injection smoke in
``tests/test_backend_conformance.py`` kills a live worker mid-session
to prove it).

The control plane never moves: modeled charges, CommStats, staging and
fault hooks all stay on the orchestrating process, and the
:class:`~repro.runtime.transport.TransportGroup` wire account must
match the modeled CommStats exactly (oracle parity).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.runtime.transport import (
    Transport,
    TransportDeadRankError,
    TransportError,
    TransportGroup,
    TransportTimeoutError,
)

__all__ = ["UniqueId", "MpTransport"]


class UniqueId:
    """NCCL-style session token, minted once and shared by all ranks.

    The random hex token namespaces every shared-memory segment of the
    session, so concurrent transports (tests, benchmarks, parallel CI
    jobs) never collide on ``/dev/shm`` names.
    """

    __slots__ = ("token",)

    def __init__(self, token: str | None = None):
        self.token = token if token is not None else os.urandom(6).hex()

    def segment_name(self, rank: int, generation: int) -> str:
        """The shm segment name of ``rank``'s ``generation``-th buffer."""
        return f"repro-{self.token}-r{rank}g{generation}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniqueId({self.token})"


def _worker_main(token: str, rank: int, size: int, conn) -> None:
    """Backend-rank process: serve data-plane commands until ``exit``.

    Commands arrive as picklable tuples on the duplex pipe; every
    command is answered with ``("ok", payload)`` or ``("error", text)``
    — the orchestrator never waits on a reply that cannot come.
    """
    segments: dict[str, shared_memory.SharedMemory] = {}

    def attach(name: str) -> shared_memory.SharedMemory:
        shm = segments.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            segments[name] = shm
        return shm

    def view(name: str, shape, dtype) -> np.ndarray:
        return np.ndarray(shape, np.dtype(dtype), buffer=attach(name).buf)

    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            try:
                if op == "ping":
                    conn.send(("ok", rank))
                elif op == "drop":
                    shm = segments.pop(msg[1], None)
                    if shm is not None:
                        shm.close()
                    conn.send(("ok", None))
                elif op == "reduce":
                    _, own, peers, shape, dtype = msg
                    total = view(own, shape, dtype)
                    # rank-ordered in-place accumulation: the first
                    # contribution is already resident in this (root)
                    # segment, so the order matches the orchestrated
                    # ``copy(); +=`` chain bit for bit
                    for name in peers:
                        total += view(name, shape, dtype)
                    conn.send(("ok", None))
                elif op == "fetch":
                    _, src, dst, shape, dtype = msg
                    np.copyto(view(dst, shape, dtype), view(src, shape, dtype))
                    conn.send(("ok", None))
                elif op == "exit":
                    conn.send(("ok", None))
                    return
                else:
                    conn.send(("error", f"unknown command {op!r}"))
            except Exception as exc:  # noqa: BLE001 - reported to main
                conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass  # orchestrator went away; shut down quietly
    finally:
        for shm in segments.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown
                pass


class _WorkerProc:
    """Main-process handle of one backend-rank process + its segment."""

    __slots__ = ("rank", "conn", "proc", "segment", "seg_name", "generation")

    def __init__(self, uid: UniqueId, rank: int, size: int, ctx):
        self.rank = rank
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(uid.token, rank, size, child),
            name=f"repro-mp-rank{rank}", daemon=True)
        self.proc.start()
        child.close()
        self.segment: shared_memory.SharedMemory | None = None
        self.seg_name: str | None = None
        self.generation = 0


class MpGroup(TransportGroup):
    """A communicator's data plane on the process team."""

    def _plane_allreduce(self, unique, shared, out):
        t = self.transport
        members = self.member_ids
        # contribution 0 already lives in ``out`` (the root's copy /
        # alias); stage every contribution in its member's segment
        contribs = [out, *unique[1:]]
        shape, dtype = out.shape, out.dtype
        names = []
        for k, arr in enumerate(contribs):
            w = t.ensure_segment(members[k], arr.nbytes)
            np.copyto(t.segment_view(w, shape, dtype), arr)
            names.append(w.seg_name)
        root = members[0]
        t.rpc(root, ("reduce", names[0], names[1:], shape, dtype.str))
        np.copyto(out, t.segment_view(t.worker(root), shape, dtype))
        return out

    def _plane_bcast(self, buffers, root):
        t = self.transport
        members = self.member_ids
        src = buffers[root]
        shape, dtype = src.shape, src.dtype
        wroot = t.ensure_segment(members[root], src.nbytes)
        np.copyto(t.segment_view(wroot, shape, dtype), src)
        fetchers = [i for i in range(len(members)) if i != root]
        ranks, msgs = [], []
        for i in fetchers:
            w = t.ensure_segment(members[i], src.nbytes)
            ranks.append(members[i])
            msgs.append(("fetch", wroot.seg_name, w.seg_name, shape, dtype.str))
        t.rpc_all(ranks, msgs)
        for i in fetchers:
            np.copyto(buffers[i],
                      t.segment_view(t.worker(members[i]), shape, dtype))

    def _plane_allgather(self, buffers):
        self._plane_barrier()

    def _plane_barrier(self):
        members = list(self.member_ids)
        self.transport.rpc_all(members, [("ping",)] * len(members))


class MpTransport(Transport):
    """The ``mp`` backend: spawned worker processes + shm segments.

    Workers spawn lazily (first collective that needs them), are
    constructed from ``(UniqueId, rank, size)`` and live for the
    transport's lifetime; :meth:`close` (also registered atexit) retires
    them and unlinks every segment.
    """

    name = "mp"

    def __init__(self, n_ranks: int, *, timeout: float = 60.0,
                 unique_id: UniqueId | None = None,
                 min_segment_bytes: int = 1 << 20):
        super().__init__(n_ranks)
        self.timeout = float(timeout)
        self.uid = unique_id if unique_id is not None else UniqueId()
        self.min_segment_bytes = int(min_segment_bytes)
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: list[_WorkerProc | None] = [None] * self.n_ranks
        self._closed = False
        atexit.register(self.close)

    def _make_group(self, member_ids):
        return MpGroup(self, member_ids)

    # -- worker lifecycle -------------------------------------------------------
    def worker(self, rank: int) -> _WorkerProc:
        """The backend rank's process handle (spawned on first use)."""
        if self._closed:
            raise TransportError("mp transport is closed")
        w = self._workers[rank]
        if w is None:
            w = _WorkerProc(self.uid, rank, self.n_ranks, self._ctx)
            self._workers[rank] = w
        return w

    def ensure_segment(self, rank: int, nbytes: int) -> _WorkerProc:
        """The rank's worker with a segment of at least ``nbytes``.

        Growth is a fresh generation: every live worker drops its
        cached attachment of the old name first, then the old segment
        is unlinked and the next power-of-two size created.
        """
        w = self.worker(rank)
        if w.segment is None or w.segment.size < nbytes:
            size = max(self.min_segment_bytes,
                       1 << max(int(nbytes) - 1, 0).bit_length())
            if w.segment is not None:
                old = w.seg_name
                for peer in self._workers:
                    if peer is not None:
                        self.rpc(peer.rank, ("drop", old))
                w.segment.close()
                w.segment.unlink()
            w.generation += 1
            name = self.uid.segment_name(rank, w.generation)
            w.segment = shared_memory.SharedMemory(
                name=name, create=True, size=size)
            w.seg_name = name
        return w

    def segment_view(self, w: _WorkerProc, shape, dtype) -> np.ndarray:
        """An ndarray view of the leading bytes of ``w``'s segment."""
        return np.ndarray(shape, dtype, buffer=w.segment.buf)

    # -- command transport with liveness probing --------------------------------
    def _send(self, w: _WorkerProc, msg) -> None:
        try:
            w.conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise TransportDeadRankError([w.rank]) from exc

    def _recv(self, w: _WorkerProc, deadline: float):
        while not w.conn.poll(0.1):
            if not w.proc.is_alive():
                raise TransportDeadRankError([w.rank])
            if time.monotonic() > deadline:
                raise TransportTimeoutError(
                    f"mp backend rank {w.rank} did not answer within "
                    f"{self.timeout:g}s")
        try:
            status, payload = w.conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportDeadRankError([w.rank]) from exc
        if status == "error":
            raise TransportError(
                f"mp backend rank {w.rank} failed: {payload}")
        return payload

    def rpc(self, rank: int, msg):
        """One command to one worker; returns its reply payload."""
        w = self.worker(rank)
        self._send(w, msg)
        return self._recv(w, time.monotonic() + self.timeout)

    def rpc_all(self, ranks, msgs) -> list:
        """Scatter one command per worker, then gather every reply.

        All commands are in flight before the first reply is awaited,
        so independent workers genuinely overlap.
        """
        deadline = time.monotonic() + self.timeout
        workers = [self.worker(r) for r in ranks]
        for w, m in zip(workers, msgs):
            self._send(w, m)
        return [self._recv(w, deadline) for w in workers]

    # -- teardown ---------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for w in self._workers:
            if w is None:
                continue
            try:
                w.conn.send(("exit",))
            except Exception:  # pragma: no cover - already dead
                pass
        for w in self._workers:
            if w is None:
                continue
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():  # pragma: no cover - defensive
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            try:
                w.conn.close()
            except Exception:  # pragma: no cover - teardown
                pass
            if w.segment is not None:
                try:
                    w.segment.close()
                    w.segment.unlink()
                except Exception:  # pragma: no cover - teardown
                    pass
