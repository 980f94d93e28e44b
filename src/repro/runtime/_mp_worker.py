"""Rank process of the ``mp`` backend: a leaf program (DESIGN.md §5h).

:mod:`repro.runtime.mp_backend` launches this file *by path* —
``python _mp_worker.py <rank> <fd>``, ``fd`` the inherited end of the
orchestrator's duplex command pipe — so a rank process costs one
interpreter plus ``import numpy``.  Standard library and NumPy only,
**never** ``repro`` (CI greps for it).

Commands are picklable tuples — ``ping`` / ``drop`` / ``reduce`` /
``fetch`` / ``exit`` — each answered with ``("ok", payload)`` or
``("error", text)``: the orchestrator never waits on a reply that
cannot come.  The process ends on ``exit`` or on EOF of the pipe.
"""

import mmap
import os
import sys
import traceback
from multiprocessing.connection import Connection

import _posixshmem
import numpy as np


def _attach(name: str) -> mmap.mmap:
    """Map a segment as ``SharedMemory(name=)`` does underneath, minus its
    resource tracker: outside a ``multiprocessing`` child that would be a
    tracker of this process's own, unlinking live segments at exit."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _execute(rank: int, segments: dict, msg):
    """Run one command; the views it builds die with this frame, so a
    later ``drop`` can unmap the segment."""

    def view(name, shape, dtype):
        if name not in segments:
            segments[name] = _attach(name)
        return np.ndarray(shape, np.dtype(dtype), buffer=segments[name])

    op, *args = msg
    if op == "ping":
        return rank
    if op == "drop":
        if args[0] in segments:
            segments.pop(args[0]).close()
    elif op == "reduce":
        own, peers, shape, dtype = args
        total = view(own, shape, dtype)
        # rank-ordered in-place accumulation: the first contribution is
        # already resident in this (root) segment, so the order matches
        # the orchestrated ``copy(); +=`` chain bit for bit
        for name in peers:
            total += view(name, shape, dtype)
    elif op == "fetch":
        src, dst, shape, dtype = args
        np.copyto(view(dst, shape, dtype), view(src, shape, dtype))
    elif op != "exit":
        raise ValueError(f"unknown command {op!r}")


def serve(rank: int, conn: Connection) -> None:
    """Answer data-plane commands until ``exit`` or EOF."""
    segments: dict[str, mmap.mmap] = {}
    try:
        while True:
            msg = conn.recv()
            try:
                reply = ("ok", _execute(rank, segments, msg))
            except Exception as exc:  # noqa: BLE001 - reported to main
                reply = ("error", f"{exc!r}\n{traceback.format_exc()}")
            conn.send(reply)
            if msg[0] == "exit":
                return
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # orchestrator went away; shut down quietly


if __name__ == "__main__":
    serve(int(sys.argv[1]), Connection(int(sys.argv[2])))
    os._exit(0)  # nothing to flush: skip ~30 ms of NumPy finalisation
