"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation (Sec. 4).  Numeric solves run at reduced scale (they are what
``pytest-benchmark`` times); paper-scale performance numbers come from
phantom replays through the cost model.  Each experiment's output is
printed and also written under ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import numpy as np
import scipy

from repro import ChaseConfig, ChaseSolver, ConvergenceTrace, IterationRecord
from repro.core.lanczos import SpectralBounds
from repro.distributed import DistributedHermitian
from repro.runtime import CommBackend, Grid2D, VirtualCluster, blas

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: the paper's weak-scaling workload (Figs. 2 and 3a)
WEAK_NEV, WEAK_NEX, WEAK_DEG = 2250, 750, 20
WEAK_N_PER_SQRT_NODE = 30_000

#: the paper's strong-scaling workload (Fig. 3b)
STRONG_N, STRONG_NEV, STRONG_NEX = 115_459, 1200, 400


def host_info() -> dict:
    """What a wall-clock number was measured on: the cores this process
    may use and the BLAS pool layout of a numeric solve
    (:func:`repro.runtime.blas.describe`).  Every bench that records a
    wall time embeds this next to it."""
    return {
        "cores": blas.usable_cores(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_pools": blas.describe(),
    }


def emit(name: str, text: str) -> None:
    """Print an experiment's regenerated output and persist it.

    When a campaign DB is active (``campaign_db_scope`` or the
    ``REPRO_CAMPAIGN_DB`` env var — DESIGN.md §5k), the artifact is
    also recorded there, so hand-run benches and campaign runs share
    one results store instead of diverging copies of the same point.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    from repro.campaign.db import record_artifact_if_active

    record_artifact_if_active(name, text)
    print(f"\n{text}\n")


def make_phantom_solver(
    nodes: int,
    N: int,
    nev: int,
    nex: int,
    backend: CommBackend,
    scheme: str = "new",
    dtype=np.float64,
    config=None,
) -> ChaseSolver:
    """A paper-scale solver on metadata-only buffers.

    STD/NCCL run 4 ranks/node x 1 GPU; LMS runs 1 rank/node x 4 GPUs
    (the paper's configurations, Sec. 4).  ``config`` is the cluster's
    ``ExecutionConfig`` (``None`` = defaults).
    """
    if scheme == "lms":
        rpn, gpr = 1, 4
    else:
        rpn, gpr = 4, 1
    cluster = VirtualCluster(
        nodes * rpn, backend=backend, ranks_per_node=rpn,
        gpus_per_rank=gpr, phantom=True, config=config,
    )
    grid = Grid2D(cluster)
    H = DistributedHermitian.phantom(grid, N, dtype)
    cfg = ChaseConfig(nev=nev, nex=nex, deg=WEAK_DEG)
    return ChaseSolver(grid, H, cfg, scheme=scheme)


def weak_scaling_point(
    nodes: int, backend: CommBackend, scheme: str = "new"
):
    """One point of the Fig. 2 / 3a workload: a single ChASE iteration
    with deg=20 on a Uniform matrix of N = 30k * sqrt(nodes)."""
    N = WEAK_N_PER_SQRT_NODE * int(round(np.sqrt(nodes)))
    solver = make_phantom_solver(
        nodes, N, WEAK_NEV, WEAK_NEX, backend, scheme
    )
    trace = ConvergenceTrace.fixed(1, WEAK_NEV + WEAK_NEX, deg=WEAK_DEG)
    return solver.solve_phantom(trace)


def strong_scaling_trace(ne: int = STRONG_NEV + STRONG_NEX) -> ConvergenceTrace:
    """Convergence trace for the Fig. 3b full solve of In2O3 115k.

    Calibrated against the paper's own measurements: Table 2 reports the
    In2O3 115k problem converging in 7 iterations; the locked fractions
    and per-iteration degree profiles follow numeric runs of the scaled
    BSE problem (``examples/strong_scaling_trace.py`` regenerates them),
    yielding ~130k column-MatVecs — consistent with the paper's 4-node
    ChASE(NCCL) anchor of ~65 s.
    """
    locked_frac = [0.0, 0.0, 0.30, 0.55, 0.75, 0.90, 0.97]
    tr = ConvergenceTrace()
    for it, lf in enumerate(locked_frac):
        locked = int(lf * ne)
        width = ne - locked
        lo, hi = (20, 20) if it == 0 else (12, 34)
        degs = np.sort(
            (np.ceil(np.linspace(lo, hi, width) / 2) * 2).astype(np.int64)
        )
        tr.append(
            IterationRecord(
                degrees=degs,
                locked_before=locked,
                new_converged=0,
                qr_variant="sCholeskyQR2" if it < 3 else "CholeskyQR2",
                cond_est=1e9,
                matvecs=int(degs.sum()),
            )
        )
    return tr


def strong_scaling_point(
    nodes: int,
    backend: CommBackend,
    scheme: str = "new",
    trace: ConvergenceTrace | None = None,
):
    """One point of the Fig. 3b strong-scaling experiment."""
    solver = make_phantom_solver(
        nodes, STRONG_N, STRONG_NEV, STRONG_NEX, backend, scheme,
        dtype=np.complex128,
    )
    trace = trace if trace is not None else strong_scaling_trace()
    return solver.solve_phantom(
        trace, bounds=SpectralBounds(3.0, -1.0, 1.0), include_lanczos=True
    )
