"""The ``mp`` execution backend: one OS process per rank over shared memory.

DESIGN.md §5h.  A *collectives-only* data plane: the solver loop, every
BLAS kernel and the control plane (modeled charges, CommStats, staging,
fault hooks) stay on the orchestrating process; a rank process only
moves payloads, and the wire account must match the modeled CommStats.

* **A rank process is a leaf program.**  ``_mp_worker.py`` (stdlib +
  NumPy, no ``repro`` import) is launched *by path* and handed one end
  of a duplex pipe by file descriptor (``pass_fds``, POSIX only): it
  costs an interpreter plus ``import numpy``, never re-runs the
  orchestrator's ``__main__``, and ends on ``exit`` or EOF of its pipe.
* **Rendezvous** follows the NCCL wrapper idiom: one random
  :class:`UniqueId` token names the session and every shared-memory
  segment is named from ``(token, rank, generation)``.
* **Multivector exchange**: one growable segment per rank (power-of-two
  sizing, 1 MiB floor).  A reduction lands the rank-ordered
  contributions in the member segments and the *root worker*
  accumulates them in place (the orchestrated accumulation order — the
  bit-identity contract); a broadcast is the mirror image, every
  non-root worker pulling the root's segment into its own.
* **Liveness**: replies are awaited in a poll-and-probe loop — a dead
  worker is a typed ``TransportDeadRankError`` (saying how its process
  ended), a stuck one a ``TransportTimeoutError``, never a hang.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import subprocess
import sys
import time
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

#: the rank-process program, launched by path (never imported)
_WORKER = os.path.join(os.path.dirname(__file__), "_mp_worker.py")
#: a worker never calls BLAS, so it starts without a BLAS thread pool —
#: creating one is ~40 % of its ``import numpy``
_NO_BLAS_POOL = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class UniqueId:
    """NCCL-style session token, minted once and shared by all ranks: it
    namespaces every shared-memory segment of the session, so concurrent
    transports never collide on ``/dev/shm`` names."""

    __slots__ = ("token",)

    def __init__(self, token: str | None = None):
        self.token = token if token is not None else os.urandom(6).hex()

    def segment_name(self, rank: int, generation: int) -> str:
        """The shm segment name of ``rank``'s ``generation``-th buffer."""
        return f"repro-{self.token}-r{rank}g{generation}"


class _WorkerProc:
    """Main-process handle of one backend-rank process + its segment."""

    __slots__ = ("rank", "conn", "proc", "segment", "generation")

    def __init__(self, rank: int):
        self.rank = rank
        self.conn, child = multiprocessing.Pipe(duplex=True)
        # close_fds leaves the child this one descriptor: no sibling
        # holds another worker's pipe open, so EOF means "orchestrator
        # gone" and orphans exit
        with child:
            fd = child.fileno()
            self.proc = subprocess.Popen(
                [sys.executable, _WORKER, str(rank), str(fd)],
                pass_fds=(fd,), stdin=subprocess.DEVNULL,
                env={**os.environ, **_NO_BLAS_POOL})
        self.segment: shared_memory.SharedMemory | None = None
        self.generation = 0

    def dead(self) -> TransportDeadRankError:
        """The typed error of this worker lost, with how its process ended."""
        try:
            code = self.proc.wait(timeout=1.0)
            how = (f"exit status {code}" if code >= 0 else
                   f"killed by signal {-code} ({signal.strsignal(-code)})")
        except subprocess.TimeoutExpired:
            how = "pipe closed, process still running"
        return TransportDeadRankError([self.rank], how)


class MpGroup(TransportGroup):
    """A communicator's data plane on the process team."""

    def _plane_allreduce(self, unique, shared, out):
        t = self.transport
        members = self.member_ids
        # contribution 0 already lives in ``out`` (the root's copy /
        # alias); stage every contribution in its member's segment
        shape, dtype = out.shape, out.dtype
        names = []
        for member, arr in zip(members, [out, *unique[1:]]):
            w = t.ensure_segment(member, arr.nbytes)
            np.copyto(t.segment_view(w, shape, dtype), arr)
            names.append(w.segment.name)
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
        segs = [t.ensure_segment(members[i], src.nbytes) for i in fetchers]
        t.rpc_all([w.rank for w in segs],
                  [("fetch", wroot.segment.name, w.segment.name, shape,
                    dtype.str) for w in segs])
        for i, w in zip(fetchers, segs):
            np.copyto(buffers[i], t.segment_view(w, shape, dtype))

    def _plane_allgather(self, buffers):
        self._plane_barrier()

    def _plane_barrier(self):
        members = list(self.member_ids)
        self.transport.rpc_all(members, [("ping",)] * len(members))


class MpTransport(Transport):
    """The ``mp`` backend: leaf worker processes + shm segments.

    Workers start lazily (first collective that needs them) and live
    for the transport's lifetime; :meth:`close` (also registered atexit)
    retires them and unlinks every segment.
    """

    name = "mp"

    def __init__(self, n_ranks: int, *, timeout: float = 60.0,
                 unique_id: UniqueId | None = None,
                 min_segment_bytes: int = 1 << 20):
        if os.name != "posix":
            raise TransportError("the mp backend hands each worker its pipe "
                                 "by file descriptor (POSIX only)")
        super().__init__(n_ranks)
        self.timeout = float(timeout)
        self.uid = unique_id if unique_id is not None else UniqueId()
        self.min_segment_bytes = int(min_segment_bytes)
        self._workers: list[_WorkerProc | None] = [None] * self.n_ranks
        self._closed = False
        atexit.register(self.close)

    def _make_group(self, member_ids):
        return MpGroup(self, member_ids)

    def worker(self, rank: int) -> _WorkerProc:
        """The backend rank's process handle, started on first use —
        the one place a worker process is launched."""
        if self._closed:
            raise TransportError("mp transport is closed")
        if self._workers[rank] is None:
            self._workers[rank] = _WorkerProc(rank)
        return self._workers[rank]

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
                for peer in self._workers:
                    if peer is not None:
                        self.rpc(peer.rank, ("drop", w.segment.name))
                w.segment.close()
                w.segment.unlink()
            w.generation += 1
            w.segment = shared_memory.SharedMemory(
                name=self.uid.segment_name(rank, w.generation),
                create=True, size=size)
        return w

    def segment_view(self, w: _WorkerProc, shape, dtype) -> np.ndarray:
        """An ndarray view of the leading bytes of ``w``'s segment."""
        return np.ndarray(shape, dtype, buffer=w.segment.buf)

    def _recv(self, w: _WorkerProc, deadline: float):
        while not w.conn.poll(0.1):
            if w.proc.poll() is not None:
                raise w.dead()
            if time.monotonic() > deadline:
                raise TransportTimeoutError(
                    f"mp backend rank {w.rank} did not answer within "
                    f"{self.timeout:g}s")
        try:
            status, payload = w.conn.recv()
        except (EOFError, OSError) as exc:
            raise w.dead() from exc
        if status == "error":
            raise TransportError(f"mp backend rank {w.rank} failed: {payload}")
        return payload

    def rpc(self, rank: int, msg):
        """One command to one worker; returns its reply payload."""
        return self.rpc_all([rank], [msg])[0]

    def rpc_all(self, ranks, msgs) -> list:
        """Scatter one command per worker, then gather every reply.

        All commands are in flight before the first reply is awaited,
        so independent workers genuinely overlap.
        """
        deadline = time.monotonic() + self.timeout
        workers = [self.worker(r) for r in ranks]
        for w, m in zip(workers, msgs):
            try:
                w.conn.send(m)
            except OSError as exc:
                raise w.dead() from exc
        return [self._recv(w, deadline) for w in workers]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        live = [w for w in self._workers if w is not None]
        for w in live:
            try:
                w.conn.send(("exit",))
            except OSError:  # already dead
                pass
        for w in live:
            try:
                w.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                w.proc.kill()
                w.proc.wait()
            w.conn.close()
            if w.segment is not None:
                try:
                    w.segment.unlink()
                    w.segment.close()
                except Exception:  # pragma: no cover - teardown
                    pass
