"""Where the traced run puts its spans: one per layer boundary.

Nothing under ``src/`` is edited.  For the length of one traced
repetition the harness binds timing wrappers over public callables of
``repro``: a plain function is replaced in every ``repro`` module that
imported it (its *import sites*, e.g. ``repro.core.chase.chebyshev_filter``),
a method on its class.  The originals go back when the repetition ends,
so untraced repetitions in the same process run unwrapped.

A hook whose target no longer exists raises: the layer's metrics would
otherwise read 0 on a run that says it is correct.  The change that
renames or removes a hooked callable is preceded by a benchmark change
that moves the hook.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys

from repro.arrays import PhantomArray
from repro.perfmodel import gemm_flops

from benchmarks.e2e.spans import SpanRecorder

#: names of the five solver phases of Algorithm 2
PHASES = ("core.lanczos", "core.filter", "core.qr", "core.rr", "core.resid")
SOLVE = "core.solve"

_DEVICE_KERNELS = ("gemm", "syrk", "trsm", "potrf", "eigh", "axpby", "cast")
_COLLECTIVES = ("allreduce", "bcast", "iallreduce", "allgather", "stage_all")


# ----------------------------------------------------- counts at the boundaries
def _count_hemm_flops(counters, args, kwargs, result) -> None:
    """Computed flops of one distributed HEMM: ``2 N^2 cols`` (x4 complex)."""
    H = args[0].H
    counters["distributed.hemm.flops"] += gemm_flops(
        H.N, result.ne, H.N, H.dtype)


def _count_charge_only(counters, args, kwargs, result) -> None:
    """A device kernel that charged the model but did no arithmetic."""
    first = result[0] if type(result) is tuple else result
    if first is None or type(first) is PhantomArray:
        counters["arrays.phantom.kernel_charges"] += 1


def _count_qr_breakdowns(counters, args, kwargs, result) -> None:
    counters["core.qr.breakdowns"] += getattr(result, "breakdowns", 0)


def _count_candidates(counters, args, kwargs, result) -> None:
    counters["perfmodel.autotune.candidates"] += len(result.results)


def _hooks() -> list[tuple]:
    """``(module, attribute path, span name, wrap options)`` rows."""
    chase = "repro.core.chase"
    rows = [
        (chase, "ChaseSolver.solve", SOLVE, {}),
        (chase, "ChaseSolver.solve_phantom", SOLVE, {}),
        ("repro.core.lanczos", "lanczos_bounds", "core.lanczos", {}),
        # the phantom replay charges Lanczos through this helper; without
        # the hook its HEMMs would read as driver time
        (chase, "ChaseSolver._phantom_lanczos_cost", "core.lanczos", {}),
        ("repro.core.filter", "chebyshev_filter", "core.filter", {}),
        ("repro.core.qr", "caqr_1d", "core.qr",
         {"after": _count_qr_breakdowns}),
        ("repro.core.qr", "cholesky_qr", "core.qr", {}),
        ("repro.core.qr", "shifted_cholesky_qr2", "core.qr", {}),
        ("repro.core.qr", "mixed_cholesky_qr2", "core.qr", {}),
        ("repro.baselines.scalapack_qr", "hhqr_1d", "core.qr", {}),
        ("repro.core.rayleigh_ritz", "rayleigh_ritz", "core.rr", {}),
        ("repro.core.residuals", "residuals", "core.resid", {}),
        ("repro.distributed.hemm", "DistributedHemm.apply",
         "distributed.hemm", {"after": _count_hemm_flops}),
        ("repro.distributed.hemm", "block_numeric",
         "distributed.hemm.numeric", {}),
        ("repro.distributed.hemm", "panel_cb_numeric",
         "distributed.hemm.numeric", {}),
        ("repro.distributed.hemm", "panel_bc_numeric",
         "distributed.hemm.numeric", {}),
        ("repro.distributed.redistribute", "redistribute_c_to_b",
         "distributed.redistribute", {}),
        ("repro.distributed.redistribute", "redistribute_b_to_c",
         "distributed.redistribute", {}),
        ("repro.distributed.hermitian", "DistributedHermitian.from_dense",
         "distributed.from_dense", {}),
        ("repro.runtime.cluster", "VirtualCluster.close",
         "runtime.transport.close", {}),
        ("repro.perfmodel.collectives", "collective_cost",
         "perfmodel.collective_cost", {}),
        ("repro.perfmodel.autotune", "autotune", "perfmodel.autotune",
         {"after": _count_candidates, "opaque": True}),
        ("repro.service.service", "EigenService.run", "service.run", {}),
    ]
    for k in _DEVICE_KERNELS:
        rows.append(("repro.runtime.device", f"LocalKernels.{k}",
                     f"runtime.device.{k}", {"after": _count_charge_only}))
    # the arithmetic of the decoupled charge/compute paths
    for k in ("gemm", "syrk", "trsm", "axpby"):
        rows.append(("repro.runtime.device", f"{k}_numeric",
                     f"runtime.device.{k}", {}))
    for c in _COLLECTIVES:
        rows.append(("repro.runtime.communicator", f"Communicator.{c}",
                     f"runtime.comm.{c}", {}))
    return rows


def _import_sites(original) -> list:
    """Every ``(namespace, attribute)`` under ``repro`` bound to ``original``."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr))
    return sites


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder):
    """Bind the span wrappers for the scope."""
    saved: list[tuple] = []   # (namespace, attribute, original static object)
    try:
        for mod_name, path, name, opts in _hooks():
            # a target that is gone raises here, on purpose (see above)
            owner = importlib.import_module(mod_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            static = inspect.getattr_static(owner, attr)
            if parents:
                if isinstance(static, classmethod):
                    wrapped = classmethod(
                        recorder.wrap(static.__func__, name, **opts))
                else:
                    wrapped = recorder.wrap(static, name, **opts)
                saved.append((owner, attr, static))
                setattr(owner, attr, wrapped)
            else:
                wrapped = recorder.wrap(static, name, **opts)
                for site, site_attr in _import_sites(static):
                    saved.append((site, site_attr, static))
                    setattr(site, site_attr, wrapped)
        yield
    finally:
        for owner, attr, static in reversed(saved):
            setattr(owner, attr, static)
