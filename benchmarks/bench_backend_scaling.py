"""Real multi-core solve scaling across execution backends (DESIGN.md §5h).

The orchestrated runtime and the ``threads`` backend share one Python
process: one GIL and — on pip wheels — *two* OpenBLAS thread pools
(NumPy's and SciPy's), of which :mod:`repro.runtime.blas` keeps exactly
one multi-threaded while a solve runs.  In process, the cores are used
only inside each BLAS call of that one pool; the Python control plane
between the calls is serial.  The ``mp`` backend runs every rank as a
spawned OS process whose pools are sized to ``cores // n_ranks`` threads
at bootstrap: on a multi-core host the rank-local GEMM work of a solve
genuinely overlaps, and the measured speedup should approach the Amdahl
bound :func:`repro.perfmodel.calibrate.predicted_backend_speedup`.  The
pool layout every wall time was taken under is recorded in the section's
``host`` block (``benchmarks/_common.host_info``).

Each point solves the *same* problem on ``orchestrated``, ``threads``
and ``mp`` (the mp run with ``kernel_workers = n_ranks`` so the
kernel plane fans the HEMM/axpby batches across the worker pool) and
re-verifies the §5h contract on every backend:

* eigenpairs and residual norms bit-identical to orchestrated;
* modeled CommStats (legacy triple and per-level split) identical, with
  the transport's independently measured wire account matching exactly
  (``assert_transport_parity`` runs inside every solve).

Honesty: the ``target_met_*`` gates in ``BENCH_wallclock.json`` record
whether the mp backend reached the **1.5x at 4 ranks** real-speedup
target.  That target needs >= 4 physical cores; the measured core count
is recorded next to the verdict, and on a single-core container the
Amdahl prediction itself degenerates to 1.0x — the process fan-out then
only buys IPC overhead, which the numbers will show.  Conformance
(bit-identity + oracle parity) is gated unconditionally.

Run:  ``PYTHONPATH=src python benchmarks/bench_backend_scaling.py [--smoke]``

``--smoke`` (CI) shrinks the problem, runs the 2x2 point only, and
exits nonzero if any backend breaks bit-identity or wire parity.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np

from benchmarks._common import emit, host_info
from repro import ChaseConfig, ChaseSolver
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.perfmodel.calibrate import predicted_backend_speedup
from repro.runtime import ExecutionConfig, Grid2D, VirtualCluster

JSON_PATH = ROOT / "BENCH_wallclock.json"

BACKENDS = ("orchestrated", "threads", "mp")

#: real-speedup target for the mp backend at 4 ranks (needs >= 4 cores)
TARGET_MP_SPEEDUP_4RANKS = 1.5


def solve_point(backend: str, p: int, q: int, H, nev: int, nex: int,
                workers: int = 1):
    """One timed solve; returns (wall_s, result, stats, levels)."""
    config = ExecutionConfig(kernel_workers=workers)
    with VirtualCluster(p * q, backend=backend, config=config) as cluster:
        grid = Grid2D(cluster, p, q)
        Hd = DistributedHermitian.from_dense(grid, H)
        solver = ChaseSolver(grid, Hd, ChaseConfig(nev=nev, nex=nex))
        t0 = time.perf_counter()
        res = solver.solve(rng=np.random.default_rng(7),
                           return_vectors=True)
        wall = time.perf_counter() - t0
        final = solver.grid
        return wall, res, final.comm_stats(), final.comm_stats_levels()


def bench_grid(p: int, q: int, N: int, nev: int, nex: int) -> dict:
    """All three backends on one grid shape, conformance-checked."""
    n_ranks = p * q
    H = uniform_matrix(N, rng=np.random.default_rng(12345))
    walls, conform = {}, {}
    base = None
    for backend in BACKENDS:
        workers = n_ranks if backend == "mp" else 1
        wall, res, stats, levels = solve_point(
            backend, p, q, H, nev, nex, workers=workers)
        walls[backend] = wall
        if backend == "orchestrated":
            base = (res, stats, levels)
            conform[backend] = True
        else:
            conform[backend] = bool(
                np.array_equal(res.eigenvalues, base[0].eigenvalues)
                and np.array_equal(res.eigenvectors, base[0].eigenvectors)
                and np.array_equal(res.residual_norms,
                                   base[0].residual_norms)
                and stats == base[1]
                and levels == base[2]
            )
    cores = os.cpu_count() or 1
    speedup_mp = walls["orchestrated"] / walls["mp"]
    return {
        "grid": f"{p}x{q}",
        "n_ranks": n_ranks,
        "N": N,
        "nev": nev,
        "nex": nex,
        "wall_s_orchestrated": round(walls["orchestrated"], 4),
        "wall_s_threads": round(walls["threads"], 4),
        "wall_s_mp": round(walls["mp"], 4),
        "speedup_threads": round(walls["orchestrated"] / walls["threads"], 3),
        "speedup_mp": round(speedup_mp, 3),
        "predicted_speedup_mp": round(
            predicted_backend_speedup(n_ranks, cores=cores), 3),
        "conformance_threads": conform["threads"],
        "conformance_mp": conform["mp"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small problem, 2x2 only; gate on conformance")
    args = ap.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.smoke:
        shapes, N, nev, nex = [(2, 2)], 240, 16, 8
    else:
        shapes, N, nev, nex = [(2, 2), (2, 4)], 900, 72, 24

    points = [bench_grid(p, q, N, nev, nex) for p, q in shapes]
    conformance_ok = all(
        pt["conformance_threads"] and pt["conformance_mp"] for pt in points
    )
    at4 = next((pt for pt in points if pt["n_ranks"] == 4), points[0])
    mp_target_met = at4["speedup_mp"] >= TARGET_MP_SPEEDUP_4RANKS

    section = {
        "kind": "backend_scaling",
        "smoke": args.smoke,
        "description": (
            "Real host wall-clock of identical solves on the three "
            "execution backends (DESIGN.md §5h); mp runs every rank as "
            "a spawned process with its own BLAS pool and "
            "kernel_workers=n_ranks.  Bit-identity and modeled/"
            "wire CommStats parity verified on every point."
        ),
        "cores": cores,
        "host": host_info(),
        "target_mp_speedup_4ranks": TARGET_MP_SPEEDUP_4RANKS,
        "target_met_mp_speedup": bool(mp_target_met),
        "target_met_conformance": bool(conformance_ok),
        "points": points,
    }
    if not mp_target_met:
        section["note"] = (
            f"measured on {cores} core(s): the Amdahl bound "
            f"predicted_backend_speedup(4, cores={cores}) = "
            f"{predicted_backend_speedup(4, cores=cores):.3f}x caps what "
            "any process fan-out can deliver here; the 1.5x target needs "
            ">= 4 physical cores and the shortfall is reported honestly, "
            "not excused."
        )

    # merge into the shared wallclock report (preserve other sections)
    report = {}
    if JSON_PATH.exists():
        report = json.loads(JSON_PATH.read_text())
    report["backend_scaling"] = section
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"backend scaling ({cores} core(s)); "
        f"target mp >= {TARGET_MP_SPEEDUP_4RANKS}x at 4 ranks: "
        f"{'MET' if mp_target_met else 'NOT MET'}; "
        f"conformance: {'OK' if conformance_ok else 'BROKEN'}"
    ]
    for pt in points:
        lines.append(
            f"  {pt['grid']}: orchestrated {pt['wall_s_orchestrated']}s, "
            f"threads {pt['wall_s_threads']}s "
            f"(x{pt['speedup_threads']}), mp {pt['wall_s_mp']}s "
            f"(x{pt['speedup_mp']}, predicted x"
            f"{pt['predicted_speedup_mp']}), conformance "
            f"{'ok' if pt['conformance_threads'] and pt['conformance_mp'] else 'BROKEN'}"
        )
    emit("bench_backend_scaling", "\n".join(lines))
    print(f"backend scaling -> {JSON_PATH}")

    if not conformance_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
