"""Parallel execution of independent numeric kernel closures.

Between two synchronization points (collectives), the per-rank kernels
of the simulated cluster are *independent*: each unique block's GEMM /
SYRK / TRSM touches only its own operands.  The seed path executes them
sequentially in one host process; this module runs them on a thread
pool instead.  NumPy releases the GIL inside BLAS/LAPACK calls, so the
closures genuinely overlap on multi-core hosts.

The executor deliberately knows nothing about the cost model.  Callers
must charge all modeled time on the main thread *before* dispatching
(the decoupled charge/compute pattern used by
``repro.distributed.hemm`` and ``repro.core.qr``): the closures handed
to :func:`run_kernels` are pure array math.  That split is what keeps
modeled makespans, per-phase breakdowns and CommStats bit-identical
for every worker count — the clocks and tracer are never touched off
the main thread.

Oversubscription guard: while worker threads run, every BLAS pool
:mod:`repro.runtime.blas` discovers in the process is limited to one
thread per call, so ``workers x blas_threads`` cannot exceed the host.

The worker count is a global switch in the style of
``repro.distributed.replication``: default 1 (serial — the exact seed
execution), overridable via the ``REPRO_KERNEL_WORKERS`` environment
variable or :func:`set_kernel_workers` / :func:`kernel_worker_scope`.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.runtime import blas

__all__ = [
    "KernelCall",
    "kernel_workers",
    "set_kernel_workers",
    "kernel_worker_scope",
    "kernel_plane",
    "set_kernel_plane",
    "kernel_plane_scope",
    "kernel_fault_hook",
    "set_kernel_fault_hook",
    "run_kernels",
    "blas_thread_guard",
]


class KernelCall:
    """A picklable kernel invocation: ``fn(*args, out=out)``.

    The portable form of the executor's closures (DESIGN.md §5h):
    ``fn`` must be a module-level function and ``args`` picklable, so
    the call can ship to the mp backend's worker processes; ``out`` is
    the main-process destination the result lands in (workers compute
    into their own storage and the plane copies back, preserving every
    aliasing relationship of the in-process execution).  Calling the
    descriptor runs it locally — serial and thread-pool execution treat
    it exactly like the closure it replaces.

    ``cacheable`` lists positions of args whose *content* is immutable
    for the transport session (the solver's H panels): the kernel plane
    ships those once per worker and references them by token afterwards.
    """

    __slots__ = ("fn", "args", "out", "cacheable")

    def __init__(self, fn, args, out=None, cacheable: tuple = ()):
        self.fn = fn
        self.args = tuple(args)
        self.out = out
        self.cacheable = tuple(cacheable)

    def __call__(self):
        if self.out is not None:
            return self.fn(*self.args, out=self.out)
        return self.fn(*self.args)


def _workers_from_env() -> int:
    raw = os.environ.get("REPRO_KERNEL_WORKERS", "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


_WORKERS = _workers_from_env()
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0


def kernel_workers() -> int:
    """Current worker count (1 = serial seed execution)."""
    return _WORKERS


def set_kernel_workers(n: int) -> int:
    """Set the global worker count; returns the previous value."""
    global _WORKERS
    prev = _WORKERS
    _WORKERS = max(1, int(n))
    return prev


@contextlib.contextmanager
def kernel_worker_scope(n: int):
    """Context manager scoping the worker count (benchmarks/tests)."""
    prev = set_kernel_workers(n)
    try:
        yield
    finally:
        set_kernel_workers(prev)


# -- kernel plane (DESIGN.md §5h) --------------------------------------------------
_KERNEL_PLANE = None


def kernel_plane():
    """The installed kernel-offload plane (None = in-process execution)."""
    return _KERNEL_PLANE


def set_kernel_plane(plane):
    """Install a kernel plane; returns the previous one.

    A plane is an object with ``run_calls(calls, workers=...)`` — the mp
    backend's :class:`~repro.runtime.mp_backend.MpKernelPlane`.  Batches
    route to it only when the worker count is above one *and* every item
    is a :class:`KernelCall`; the default worker count of 1 keeps every
    kernel in process, the exact seed execution.
    """
    global _KERNEL_PLANE
    prev = _KERNEL_PLANE
    _KERNEL_PLANE = plane
    return prev


@contextlib.contextmanager
def kernel_plane_scope(plane):
    """Context manager scoping the kernel plane (``None`` = no-op scope)."""
    prev = set_kernel_plane(plane)
    try:
        yield
    finally:
        set_kernel_plane(prev)


# -- fault hook (DESIGN.md §5f) ----------------------------------------------------
_FAULT_HOOK: Callable[[], None] | None = None


def kernel_fault_hook() -> Callable[[], None] | None:
    """The currently installed kernel fault hook (None = disabled)."""
    return _FAULT_HOOK


def set_kernel_fault_hook(hook: Callable[[], None] | None
                          ) -> Callable[[], None] | None:
    """Install a hook called at every kernel-batch entry; returns the old one.

    The fault injector's ``FaultInjector.kernel_hook`` raises
    ``ExecutorFaultError`` from here to simulate a device/driver crash
    aborting a batch.  The hook runs on the main thread *before* any
    closure is dispatched, so an abort never leaves half-written
    results.  ``None`` (the default) restores the seed behavior.
    """
    global _FAULT_HOOK
    prev = _FAULT_HOOK
    _FAULT_HOOK = hook
    return prev


def _pool(n: int) -> ThreadPoolExecutor:
    """The shared pool, (re)built lazily when the worker count changes."""
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE != n:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ThreadPoolExecutor(max_workers=n, thread_name_prefix="repro-kernel")
        _POOL_SIZE = n
    return _POOL


#: Oversubscription guard: every BLAS pool of the process drops to one
#: thread while worker threads call BLAS concurrently, and gets its count
#: back afterwards (a no-op only where no pool is controllable)
blas_thread_guard = blas.single_thread_scope


def run_kernels(closures: Iterable[Callable[[], object]]) -> list:
    """Run independent numeric closures; return their results in order.

    Serial (plain loop, no pool, no guard) when the worker count is 1
    or there is at most one closure — the exact seed execution.  With
    workers the results are still returned in submission order
    (``Executor.map``), and since every closure owns disjoint output
    storage the results are bitwise independent of the worker count.
    Exceptions propagate to the caller in either mode.
    """
    fns: Sequence[Callable[[], object]] = list(closures)
    if _FAULT_HOOK is not None:
        _FAULT_HOOK()
    if (_KERNEL_PLANE is not None and _WORKERS > 1 and len(fns) > 1
            and all(isinstance(fn, KernelCall) and fn.out is not None
                    for fn in fns)):
        return _KERNEL_PLANE.run_calls(fns, workers=_WORKERS)
    if _WORKERS <= 1 or len(fns) <= 1:
        return [fn() for fn in fns]
    with blas_thread_guard():
        return list(_pool(_WORKERS).map(lambda fn: fn(), fns))
