"""Host BLAS thread placement: one multi-threaded pool per process.

The paper's STD/NCCL builds bind one rank to one GPU and its cores; the
host-side analogue here is which BLAS *thread pools* may use the cores.
pip wheels give a process two of them: NumPy vendors one OpenBLAS
(``numpy.libs/libscipy_openblas64_``) and SciPy a second
(``scipy.libs/libscipy_openblas``), each with its own ``nproc`` worker
threads that busy-wait for a while after every call.  The solve path
mixes the two (every ``scipy.linalg.solve_triangular`` sits between
NumPy GEMM / SYRK / POTRF / HEEVD calls), so the idle spinners of one
pool take cores away from the other's next call.

This module owns the rule the solving process obeys (the mp backend's
workers move payloads and never call BLAS):
**at most one multi-threaded pool, never more BLAS threads than cores.**

* :func:`pools` discovers every controllable pool loaded in the process
  (``threadpoolctl`` when importable, otherwise the OpenBLAS builds
  found in ``/proc/self/maps``) and marks the one behind ``numpy.matmul``
  as the *primary*.
* :func:`one_pool_scope` — entered at the numeric solve boundaries —
  pins every other pool to one thread and caps the primary at the usable
  cores.  It restores the previous counts on exit, nests, and is
  exception-safe.  :func:`single_thread_scope` drops *all* pools to one
  thread the same way; no library code enters it — it is the reference
  layout ``tests/test_blas_pools.py`` compares the placed solve against.
* :func:`describe` reports the layout, so a wall-clock number can be
  recorded next to the pools it was measured under.

Placement never touches numerics' *contract*: thread counts are not
configurable from here (no environment variable, config field or flag),
and modeled charges and CommStats do not know this module exists.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Callable, Sequence

import scipy.linalg  # noqa: F401 - maps SciPy's BLAS before discovery

__all__ = [
    "BlasPool",
    "discover",
    "pools",
    "usable_cores",
    "one_pool_scope",
    "single_thread_scope",
    "describe",
    "describe_line",
]

#: (set, get, config) entry points of the OpenBLAS builds in circulation:
#: pip wheels prefix ``scipy_`` and NumPy's ILP64 build suffixes ``64_``
_OPENBLAS_SYMBOLS = tuple(
    (f"{p}openblas_set_num_threads{s}", f"{p}openblas_get_num_threads{s}",
     f"{p}openblas_get_config{s}")
    for p in ("scipy_", "") for s in ("64_", ""))


class BlasPool:
    """One BLAS thread pool: a loaded library with working set/get handles."""

    __slots__ = ("filepath", "version", "primary", "_get", "_set")

    def __init__(self, filepath: str, version: str | None,
                 get: Callable[[], int], set: Callable[[int], object]):
        self.filepath = filepath
        self.version = version
        #: the pool ``numpy.matmul`` runs on (set by :func:`discover`)
        self.primary = False
        self._get = get
        self._set = set

    def threads(self) -> int:
        return int(self._get())

    def set_threads(self, n: int) -> None:
        self._set(max(1, int(n)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "primary" if self.primary else "pinned"
        return (f"BlasPool({os.path.basename(self.filepath)}, "
                f"{self.threads()} threads, {role})")


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _mapped_libraries() -> list[str]:
    """Paths of the shared objects mapped executable into this process."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:  # pragma: no cover - no procfs
        return []
    paths: dict[str, None] = {}
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) == 6 and "x" in fields[1] and fields[5].startswith("/"):
            paths[fields[5].rstrip("\n")] = None
    return list(paths)


def _openblas_pool(path: str) -> BlasPool | None:
    """The pool of an already-loaded OpenBLAS build, if it exports handles."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for set_name, get_name, config_name in _OPENBLAS_SYMBOLS:
        setter = getattr(lib, set_name, None)
        getter = getattr(lib, get_name, None)
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        version = None
        config = getattr(lib, config_name, None)
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
            # "OpenBLAS 0.3.27 DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"
            version = " ".join((config() or b"").decode().split()[:2]) or None
        return BlasPool(path, version, getter, setter)
    return None


def _threadpoolctl_pools() -> list[BlasPool] | None:
    """Every BLAS pool ``threadpoolctl`` controls (None: not importable)."""
    try:
        from threadpoolctl import ThreadpoolController
    except ImportError:
        return None
    return [
        BlasPool(c.filepath, f"{c.internal_api} {c.version}",
                 lambda c=c: c.num_threads, c.set_num_threads)
        for c in ThreadpoolController().lib_controllers
        if c.user_api == "blas"
    ]


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def _numpy_blas_file() -> str | None:
    """The library file NumPy's LAPACK extension resolves its BLAS from.

    ``dlsym`` on the extension's handle searches its own dependency tree,
    so whichever thread-count entry point resolves there belongs to the
    BLAS NumPy links; ``dladdr`` names the file that defines it.
    """
    try:
        from numpy.linalg import _umath_linalg
        ext = ctypes.CDLL(_umath_linalg.__file__)
        dladdr = ctypes.CDLL(None).dladdr
    except (ImportError, OSError, AttributeError):  # pragma: no cover
        return None
    dladdr.argtypes = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)]
    dladdr.restype = ctypes.c_int
    for set_name, _, _ in _OPENBLAS_SYMBOLS:
        fn = getattr(ext, set_name, None)
        info = _DlInfo()
        if fn is not None and dladdr(ctypes.cast(fn, ctypes.c_void_p),
                                     ctypes.byref(info)) and info.dli_fname:
            return os.path.realpath(info.dli_fname.decode())
    return None


def discover() -> tuple[BlasPool, ...]:
    """Find every controllable BLAS pool loaded right now (uncached).

    Exactly one pool is marked primary: the one NumPy links, or the
    first found when that cannot be told (a single shared BLAS, a
    vendor library without OpenBLAS entry points).
    """
    found = _threadpoolctl_pools()
    if found is None:
        found = [pool for path in _mapped_libraries()
                 if "openblas" in os.path.basename(path).lower()
                 and (pool := _openblas_pool(path)) is not None]
    if found:
        numpy_file = _numpy_blas_file()
        primary = next((p for p in found
                        if os.path.realpath(p.filepath) == numpy_file), found[0])
        primary.primary = True
    return tuple(found)


_POOLS: tuple[BlasPool, ...] | None = None


def pools() -> tuple[BlasPool, ...]:
    """The process's pools, discovered on first use."""
    global _POOLS
    if _POOLS is None:
        _POOLS = discover()
    return _POOLS


def _one_pool_counts(found: Sequence[BlasPool]) -> list[int] | None:
    if len(found) < 2:
        return None  # one BLAS (MKL, conda, system): nothing to contend with
    cores = usable_cores()
    return [min(p.threads(), cores) if p.primary else 1 for p in found]


def _single_thread_counts(found: Sequence[BlasPool]) -> list[int]:
    return [1] * len(found)


class _Layout:
    """A process-wide thread layout, held while any caller is inside.

    Thread counts are process state, so the first caller in saves them
    and applies the layout and the last one out restores them; nested
    and concurrent callers in between only count themselves.
    """

    def __init__(self, counts: Callable[[Sequence[BlasPool]], list[int] | None]):
        self._counts = counts
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[int] | None = None

    @contextlib.contextmanager
    def __call__(self):
        found = pools()
        with self._lock:
            if self._depth == 0:
                counts = self._counts(found)
                if counts is not None:
                    self._saved = [p.threads() for p in found]
                    for pool, n in zip(found, counts):
                        pool.set_threads(n)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0 and self._saved is not None:
                    for pool, n in zip(found, self._saved):
                        pool.set_threads(n)
                    self._saved = None


#: pin every non-primary pool to 1 thread, cap the primary at the usable
#: cores — the scope of a numeric solve (a no-op with fewer than two pools)
one_pool_scope = _Layout(_one_pool_counts)

#: limit *every* pool to 1 thread — the fully serial reference layout the
#: tests solve under to show placement changes wall-clock only (bit-equal
#: makespan / CommStats, eigenpairs to tolerance); not used by the library
single_thread_scope = _Layout(_single_thread_counts)


def describe() -> list[dict]:
    """One record per pool: where it lives and how it is placed.

    ``threads`` is the count right now; ``solve_threads`` the count a
    numeric solve runs it at (:func:`one_pool_scope`), which is what a
    wall-clock measurement of a solve was taken under.
    """
    found = pools()
    scoped = _one_pool_counts(found)
    return [
        {
            "file": os.path.basename(pool.filepath),
            "version": pool.version,
            "threads": pool.threads(),
            "solve_threads": scoped[i] if scoped is not None else pool.threads(),
            "role": "primary" if pool.primary else "pinned",
        }
        for i, pool in enumerate(found)
    ]


def describe_line() -> str:
    """:func:`describe` as the one line the CLI summaries print."""
    records = describe()
    if not records:
        return f"none controllable ({usable_cores()} cores)"
    return " | ".join(
        f"{r['file']} ({r['version'] or 'version n/a'}) {r['role']} "
        f"x{r['solve_threads']}" for r in records
    ) + f" ({usable_cores()} cores)"
