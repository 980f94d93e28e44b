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

The worker count and the kernel-offload plane are arguments: callers
hold a cluster and go through :meth:`VirtualCluster.run_kernels
<repro.runtime.cluster.VirtualCluster.run_kernels>`, which passes its
``config.kernel_workers`` and its transport's ``kernel_plane``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.runtime import blas

__all__ = [
    "KernelCall",
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


_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0


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


def run_kernels(closures: Iterable[Callable[[], object]],
                workers: int = 1, plane=None) -> list:
    """Run independent numeric closures; return their results in order.

    Serial (plain loop, no pool, no guard) when ``workers`` is 1 or
    there is at most one closure — the exact seed execution.  With
    workers the results are still returned in submission order
    (``Executor.map``), and since every closure owns disjoint output
    storage the results are bitwise independent of the worker count.
    Exceptions propagate to the caller in either mode.

    ``plane`` is a kernel-offload plane — an object with
    ``run_calls(calls, workers=...)``, the mp backend's
    :class:`~repro.runtime.mp_backend.MpKernelPlane` (DESIGN.md §5h).
    A batch routes to it only when ``workers`` is above one *and* every
    item is a :class:`KernelCall` with an ``out`` destination.
    """
    fns: Sequence[Callable[[], object]] = list(closures)
    if _FAULT_HOOK is not None:
        _FAULT_HOOK()
    if workers <= 1 or len(fns) <= 1:
        return [fn() for fn in fns]
    if plane is not None and all(
            isinstance(fn, KernelCall) and fn.out is not None for fn in fns):
        return plane.run_calls(fns, workers=workers)
    with blas_thread_guard():
        return list(_pool(workers).map(lambda fn: fn(), fns))
