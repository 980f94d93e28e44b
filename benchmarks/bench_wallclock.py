"""Host wall-clock benchmark of the numeric execution tiers.

The simulator executes every rank's numeric work in one host process.
Stacked optimizations (DESIGN.md §5b/§5c), all charge-identical:

* **seed** — the reference path; every replica block recomputed;
* **dedup** (PR-1) — each unique block computed once and aliased into
  the replica slots;
* **fused** — the panel-fused HEMM: one GEMM per grid row against the
  cached ``[H_i0 | ... | H_i,q-1]`` panel (C->B), one k-fused GEMM per
  row over the stacked ``[B_0; ...; B_q-1]`` (B->C, host-side
  reduction summation gone).

Every point re-verifies the invariants: eigenvalues/vectors of dedup
are bit-identical to seed, modeled makespans and CommStats are
bit-identical in **every** mode, and fused numerics agree with the
seed to rounding (``<= 1e-13 * ||H||`` per apply; eigenpairs checked
against a serial ``eigvalsh`` oracle).

Full solves are dominated by the distributed HEMM, whose ``p x q``
local GEMM blocks are *unique* per rank, so dedup's end-to-end win is
Amdahl-capped; the fused tier attacks exactly that HEMM term by
replacing ``p*q`` small GEMMs with ``p`` larger ones.  On a BLAS
already at peak for the small blocks (this container: one core) the
fused win is modest; all numbers are reported honestly with
``target_met_*`` booleans in ``BENCH_wallclock.json``.

Run:  ``PYTHONPATH=src python benchmarks/bench_wallclock.py [--smoke]``

A full run replaces this bench's keys of ``BENCH_wallclock.json`` and
keeps the sections other tools merged in; ``--smoke`` writes nothing.

``--smoke`` (CI) additionally **gates**: it exits nonzero if the fused
full-solve is slower than the seed path (speedup < 1.0) or if the
autotuned configuration (``repro tune``'s winner on the default grid
shape, DESIGN.md §5e) models slower than the untuned default.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np

from benchmarks._common import RESULTS_DIR, emit, host_info
from repro import ChaseConfig, ChaseSolver
from repro.core.qr import QRReport, shifted_cholesky_qr2
from repro.core.rayleigh_ritz import rayleigh_ritz
from repro.core.residuals import residuals
from repro.distributed import (
    BlockMap1D,
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.runtime import CommBackend, ExecutionConfig, Grid2D, VirtualCluster

JSON_PATH = ROOT / "BENCH_wallclock.json"

#: execution modes: name -> the cluster's execution configuration
MODES = {
    "seed": ExecutionConfig(numeric_dedup=False),
    "dedup": ExecutionConfig(),
    "fused": ExecutionConfig(hemm_fusion=True),
}

#: ISSUE acceptance targets (fused tier over the PR-1 dedup tier)
TARGET_SOLVE_SPEEDUP = 1.8
TARGET_HEMM_SPEEDUP = 2.5


def _hermitian(rng, N, dtype):
    A = rng.standard_normal((N, N))
    if np.dtype(dtype).kind == "c":
        A = A + 1j * rng.standard_normal((N, N))
    return ((A + A.conj().T) / 2).astype(dtype)


def _grid(p: int, q: int, config: ExecutionConfig | None = None) -> Grid2D:
    cluster = VirtualCluster(p * q, backend=CommBackend.NCCL, config=config)
    return Grid2D(cluster, p, q)


def _timed(fn, repeats: int):
    """Best-of-``repeats`` wall time plus the last return value."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


# ---------------------------------------------------------------------------
# full numeric solves
# ---------------------------------------------------------------------------


def solve_point(N, nev, nex, p, q, dtype, repeats):
    H = _hermitian(np.random.default_rng(1234), N, dtype)

    def run(mode):
        grid = _grid(p, q, MODES[mode])
        Hd = DistributedHermitian.from_dense(grid, H)
        solver = ChaseSolver(grid, Hd, ChaseConfig(nev=nev, nex=nex))
        res = solver.solve(
            rng=np.random.default_rng(7), return_vectors=True
        )
        return res, grid.comm_stats()

    walls, runs = {}, {}
    for mode in MODES:
        walls[mode], runs[mode] = _timed(lambda m=mode: run(m), repeats)

    seed_res, seed_stats = runs["seed"]
    ded_res, _ = runs["dedup"]
    fus_res, _ = runs["fused"]
    oracle = np.linalg.eigvalsh(H)[: nev]
    scale = max(1.0, float(np.abs(oracle).max()))
    point = {
        "kind": "solve",
        "N": N,
        "nev": nev,
        "nex": nex,
        "ne": nev + nex,
        "grid": f"{p}x{q}",
        "dtype": np.dtype(dtype).name,
        **{f"wall_s_{m}": round(walls[m], 4) for m in MODES},
        "speedup_dedup": round(walls["seed"] / walls["dedup"], 3),
        "speedup_fused": round(walls["seed"] / walls["fused"], 3),
        "speedup_fused_vs_dedup": round(walls["dedup"] / walls["fused"], 3),
        "iterations": seed_res.iterations,
        "eigenvalues_identical": bool(
            np.array_equal(seed_res.eigenvalues, ded_res.eigenvalues)
        ),
        "eigenvectors_identical": bool(
            np.array_equal(seed_res.eigenvectors, ded_res.eigenvectors)
        ),
        "makespan_identical": bool(
            len({runs[m][0].makespan for m in MODES}) == 1
        ),
        "comm_stats_identical": bool(
            all(runs[m][1] == seed_stats for m in MODES)
        ),
        "fused_vs_dedup_max_dlambda": float(
            np.abs(fus_res.eigenvalues - ded_res.eigenvalues).max()
        ),
        "fused_vs_oracle_max_dlambda": float(
            np.abs(fus_res.eigenvalues - oracle).max()
        ),
    }
    assert point["eigenvalues_identical"], "dedup changed the numerics!"
    assert point["makespan_identical"], "a tier changed the modeled time!"
    assert point["comm_stats_identical"], "a tier changed the comm charges!"
    assert point["fused_vs_oracle_max_dlambda"] <= 1e-8 * scale, \
        "fused eigenpairs diverged from the serial oracle!"
    return point


# ---------------------------------------------------------------------------
# autotuned configuration (DESIGN.md §5e) — modeled-time effect
# ---------------------------------------------------------------------------


def tuned_point(N, nev, nex, n_ranks, dtype, repeats):
    """Untuned default vs the autotuner's winner on the reference grid.

    ``repro tune`` scores the full configuration space with model-only
    dry runs; this point applies the winner *restricted to the default
    (squarest) grid shape* — so the comparison isolates the collective
    algorithm / fusion choice on the ISSUE's 2x4
    NCCL grid — and verifies on a real numeric solve that the tuned
    configuration models no slower than the default and leaves the
    eigenpairs unchanged.  The full-space winner is reported alongside.
    """
    from repro.perfmodel.autotune import (
        applied,
        autotune,
        default_config,
        enumerate_candidates,
    )

    dc = default_config(n_ranks)
    rep_full = autotune(n_ranks, N, nev, nex, backend=CommBackend.NCCL)
    grid_cands = [
        c for c in enumerate_candidates(n_ranks) if (c.p, c.q) == (dc.p, dc.q)
    ]
    rep = autotune(n_ranks, N, nev, nex, backend=CommBackend.NCCL,
                   candidates=grid_cands)
    best = rep.best.config

    H = _hermitian(np.random.default_rng(1234), N, dtype)

    def run(cfg):
        with applied(
            cfg, n_ranks=n_ranks, backend=CommBackend.NCCL
        ) as grid:
            Hd = DistributedHermitian.from_dense(grid, H)
            res = ChaseSolver(grid, Hd, ChaseConfig(nev=nev, nex=nex)).solve(
                rng=np.random.default_rng(7)
            )
            return res

    wall_d, res_d = _timed(lambda: run(dc), repeats)
    wall_t, res_t = _timed(lambda: run(best), repeats)
    if best.execution.hemm_fusion:
        # the fused tier is within rounding of the seed numerics (§5c)
        scale = max(1.0, float(np.abs(res_d.eigenvalues).max()))
        numerics_ok = bool(
            np.abs(res_t.eigenvalues - res_d.eigenvalues).max() <= 1e-8 * scale
        )
    else:
        numerics_ok = bool(
            np.array_equal(res_t.eigenvalues, res_d.eigenvalues)
        )
    point = {
        "kind": "tuned",
        "N": N,
        "nev": nev,
        "nex": nex,
        "ranks": n_ranks,
        "grid": f"{dc.p}x{dc.q}",
        "dtype": np.dtype(dtype).name,
        "backend": "nccl",
        "candidates_scored": len(rep_full.results),
        "tuned_config": best.label(),
        "tuned_config_full_space": rep_full.best.config.label(),
        "modeled_dryrun_default_s": round(rep.default.makespan, 6),
        "modeled_dryrun_tuned_s": round(rep.best.makespan, 6),
        "speedup_modeled_dryrun": round(rep.speedup, 3),
        "speedup_modeled_dryrun_full_space": round(rep_full.speedup, 3),
        "modeled_solve_default_s": round(res_d.makespan, 6),
        "modeled_solve_tuned_s": round(res_t.makespan, 6),
        "speedup_modeled_solve": round(res_d.makespan / res_t.makespan, 3),
        "wall_s_default": round(wall_d, 4),
        "wall_s_tuned": round(wall_t, 4),
        "eigenvalues_match": numerics_ok,
        "target_met_tuned": bool(
            rep.best.makespan <= rep.default.makespan
            and res_t.makespan <= res_d.makespan
        ),
    }
    assert point["eigenvalues_match"], "tuning changed the numerics!"
    return point


# ---------------------------------------------------------------------------
# isolated HEMM phase (what the fused tier targets)
# ---------------------------------------------------------------------------


def hemm_point(N, ne, p, q, dtype, repeats, roundtrips=4):
    """``roundtrips`` C->B->C apply pairs per timing, every mode.

    This is the filter's inner loop stripped of everything else — the
    workload the panel fusion exists for.
    """
    rng = np.random.default_rng(42)
    H = _hermitian(rng, N, dtype)
    V = rng.standard_normal((N, ne)).astype(dtype)

    def run(mode):
        grid = _grid(p, q, MODES[mode])
        Hd = DistributedHermitian.from_dense(grid, H)
        hemm = DistributedHemm(Hd)
        C = DistributedMultiVector.from_global(grid, V, Hd.rowmap, "C")
        hemm.apply(C)  # warm the panel/conjugate caches, untimed
        t0 = time.perf_counter()
        for _ in range(roundtrips):
            B = hemm.apply(C, gamma=0.8, alpha=1.1)
            C2 = hemm.apply(B, gamma=0.8, alpha=1.1)
        wall = time.perf_counter() - t0
        makespan = max(r.clock.now for r in grid.ranks)
        return wall, B.gather(), C2.gather(), makespan, grid.comm_stats()

    walls, outs = {}, {}
    for mode in MODES:
        best = None
        for _ in range(repeats):
            got = run(mode)
            if best is None or got[0] < best[0]:
                best = got
        walls[mode], outs[mode] = best[0], best[1:]

    seed = outs["seed"]
    tol = 1e-13 * max(1.0, float(np.linalg.norm(H)))
    point = {
        "kind": "phase",
        "phase": "hemm_roundtrip",
        "N": N,
        "ne": ne,
        "roundtrips": roundtrips,
        "grid": f"{p}x{q}",
        "dtype": np.dtype(dtype).name,
        **{f"wall_s_{m}": round(walls[m], 4) for m in MODES},
        "speedup_dedup": round(walls["seed"] / walls["dedup"], 3),
        "speedup_fused": round(walls["seed"] / walls["fused"], 3),
        "speedup_fused_vs_dedup": round(walls["dedup"] / walls["fused"], 3),
        "dedup_identical": bool(
            np.array_equal(seed[0], outs["dedup"][0])
            and np.array_equal(seed[1], outs["dedup"][1])
        ),
        "fused_within_tol": bool(
            np.abs(seed[0] - outs["fused"][0]).max() <= tol
            and np.abs(seed[1] - outs["fused"][1]).max() <= tol
        ),
        "makespan_identical": bool(len({o[2] for o in outs.values()}) == 1),
        "comm_stats_identical": bool(
            all(o[3] == seed[3] for o in outs.values())
        ),
    }
    assert point["dedup_identical"], "dedup changed the HEMM numerics!"
    assert point["fused_within_tol"], "fused HEMM outside rounding tolerance!"
    assert point["makespan_identical"], "a tier changed the modeled time!"
    assert point["comm_stats_identical"], "a tier changed the comm charges!"
    return point


# ---------------------------------------------------------------------------
# per-phase microbenchmarks (the phases replication actually dedups)
# ---------------------------------------------------------------------------


def qr_point(N, ne, p, q, dtype, repeats):
    rng = np.random.default_rng(5)
    V = np.linalg.qr(rng.standard_normal((N, ne)))[0] @ np.diag(
        np.logspace(0, 4, ne)
    )
    V = V.astype(dtype)

    def run(dedup):
        """Best-of-``repeats`` over the QR call alone (setup untimed;
        the factorization is in place, so C is rebuilt per repeat)."""
        best, out = float("inf"), None
        for _ in range(repeats):
            grid = _grid(p, q, ExecutionConfig(numeric_dedup=dedup))
            rowmap = BlockMap1D(N, grid.p)
            C = DistributedMultiVector.from_global(grid, V, rowmap, "C")
            t0 = time.perf_counter()
            shifted_cholesky_qr2(grid, C, QRReport())
            best = min(best, time.perf_counter() - t0)
            out = C.gather(0)
        return best, out

    t_on, q_on = run(True)
    t_off, q_off = run(False)
    return {
        "kind": "phase",
        "phase": "shifted_cholesky_qr2",
        "N": N,
        "ne": ne,
        "grid": f"{p}x{q}",
        "dtype": np.dtype(dtype).name,
        "wall_s_dedup": round(t_on, 4),
        "wall_s_seed": round(t_off, 4),
        "speedup": round(t_off / t_on, 3),
        "results_identical": bool(np.array_equal(q_on, q_off)),
    }


def rr_resid_point(N, ne, p, q, dtype, repeats):
    rng = np.random.default_rng(6)
    H = _hermitian(rng, N, dtype)
    Q = np.linalg.qr(
        rng.standard_normal((N, ne)).astype(dtype)
    )[0]

    def run(dedup):
        """Best-of-``repeats`` over the RR + residuals calls alone
        (distribution setup untimed; buffers rebuilt per repeat since
        the back-transform mutates C/C2 in place)."""
        best, out = float("inf"), None
        for _ in range(repeats):
            grid = _grid(p, q, ExecutionConfig(numeric_dedup=dedup))
            Hd = DistributedHermitian.from_dense(grid, H)
            hemm = DistributedHemm(Hd)
            C = DistributedMultiVector.from_global(grid, Q, Hd.rowmap, "C")
            C2 = DistributedMultiVector.from_global(grid, Q, Hd.rowmap, "C")
            B = DistributedMultiVector.zeros(
                grid, Hd.colmap, "B", ne, dtype, False
            )
            B2 = DistributedMultiVector.zeros(
                grid, Hd.colmap, "B", ne, dtype, False
            )
            t0 = time.perf_counter()
            ritzv = rayleigh_ritz(hemm, C, C2, B, B2, 0)
            res = residuals(hemm, C, C2, B, B2, ritzv, 0)
            best = min(best, time.perf_counter() - t0)
            out = (ritzv, res)
        return best, out

    t_on, out_on = run(True)
    t_off, out_off = run(False)
    return {
        "kind": "phase",
        "phase": "rayleigh_ritz+residuals",
        "N": N,
        "ne": ne,
        "grid": f"{p}x{q}",
        "dtype": np.dtype(dtype).name,
        "wall_s_dedup": round(t_on, 4),
        "wall_s_seed": round(t_off, 4),
        "speedup": round(t_off / t_on, 3),
        "results_identical": bool(
            np.array_equal(out_on[0], out_off[0])
            and np.array_equal(out_on[1], out_off[1])
        ),
    }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="tiny problem sizes, single repeat (CI)",
    )
    ap.add_argument(
        "--campaign-db",
        default=None,
        help="also record every emitted table into this campaign DB "
             "(shared results store, DESIGN.md §5k); the declarative "
             "port of this bench is campaigns/wallclock.yml",
    )
    ap.add_argument(
        "--campaign",
        default="wallclock",
        help="campaign name the artifacts are recorded under",
    )
    args = ap.parse_args(argv)

    if args.campaign_db:
        from repro.campaign.db import CampaignDB, campaign_db_scope

        with campaign_db_scope(
            CampaignDB(args.campaign_db), args.campaign
        ):
            return _run(args)
    return _run(args)


def write_report(report: dict, summary: str) -> None:
    """Persist a full-size report; a smoke report is only printed.

    ``BENCH_wallclock.json`` is shared: ``bench_service_throughput.py``
    and ``repro campaign report`` merge their ``service`` /
    ``campaign_*`` sections into it, so this bench replaces its own
    keys and keeps every other section as found.  Smoke-sized numbers
    never replace the committed full-size ones — ``--smoke`` gates and
    prints, and writes nothing under the repository.
    """
    if report["smoke"]:
        print(f"\n{summary}\n")
        return
    merged = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    merged.update(report)
    JSON_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_wallclock.json").write_text(
        json.dumps(report, indent=2) + "\n")
    emit("bench_wallclock", summary)


def _run(args) -> None:
    if args.smoke:
        repeats = 1
        solves = [(300, 32, 16, 2, 2, np.float64)]
        hemms = [(300, 48, 2, 2, np.float64)]
        phases = [
            ("qr", 300, 48, 2, 2, np.float64),
            ("rr", 300, 48, 2, 2, np.float64),
        ]
        tuned = [(300, 32, 16, 8, np.float64)]
    else:
        repeats = 2
        solves = [
            (1200, 120, 40, 2, 2, np.float64),   # headline
            (1200, 120, 40, 2, 2, np.complex128),
            (800, 96, 32, 2, 4, np.float64),
            (600, 64, 24, 4, 4, np.float64),
        ]
        hemms = [
            (1200, 160, 2, 2, np.float64),
            (1200, 160, 2, 4, np.float64),       # ISSUE target point
            (1200, 160, 4, 4, np.float64),
            (1200, 160, 2, 4, np.complex128),
        ]
        phases = [
            ("qr", 1200, 160, 2, 2, np.float64),
            ("qr", 800, 128, 2, 4, np.float64),
            ("rr", 1200, 160, 2, 2, np.float64),
        ]
        tuned = [(800, 96, 32, 8, np.float64)]   # ISSUE acceptance grid

    points = []
    for N, nev, nex, p, q, dt in solves:
        pt = solve_point(N, nev, nex, p, q, dt, repeats)
        points.append(pt)
        print(
            f"solve  N={N:5d} ne={nev + nex:4d} grid={p}x{q} "
            f"{np.dtype(dt).name:10s}  seed {pt['wall_s_seed']:7.3f}s  "
            f"dedup x{pt['speedup_dedup']:.2f}  fused x{pt['speedup_fused']:.2f}"
        )
    for N, ne, p, q, dt in hemms:
        pt = hemm_point(N, ne, p, q, dt, repeats)
        points.append(pt)
        print(
            f"phase  {pt['phase']:24s} N={N:5d} ne={ne:4d} grid={p}x{q} "
            f"{np.dtype(dt).name:10s}  seed {pt['wall_s_seed']:7.3f}s  "
            f"dedup x{pt['speedup_dedup']:.2f}  fused x{pt['speedup_fused']:.2f}"
        )
    for kind, N, ne, p, q, dt in phases:
        fn = qr_point if kind == "qr" else rr_resid_point
        pt = fn(N, ne, p, q, dt, repeats)
        points.append(pt)
        print(
            f"phase  {pt['phase']:24s} N={N:5d} ne={ne:4d} grid={p}x{q} "
            f"{np.dtype(dt).name:10s}  seed {pt['wall_s_seed']:7.3f}s  "
            f"dedup {pt['wall_s_dedup']:7.3f}s  x{pt['speedup']:.2f}"
        )
    for N, nev, nex, n_ranks, dt in tuned:
        pt = tuned_point(N, nev, nex, n_ranks, dt, repeats)
        points.append(pt)
        print(
            f"tuned  N={N:5d} ne={nev + nex:4d} grid={pt['grid']} "
            f"{np.dtype(dt).name:10s}  {pt['tuned_config']}  "
            f"modeled solve x{pt['speedup_modeled_solve']:.2f}  "
            f"dry run x{pt['speedup_modeled_dryrun']:.2f}"
        )

    solve_pts = [pt for pt in points if pt["kind"] == "solve"]
    hemm_pts = [pt for pt in points if pt.get("phase") == "hemm_roundtrip"]
    headline = max(
        (pt for pt in solve_pts if pt["grid"] == "2x2"),
        key=lambda pt: pt["N"],
    )
    hemm_target_pts = [pt for pt in hemm_pts if pt["grid"] == "2x4"] or hemm_pts
    best_hemm = max(hemm_target_pts, key=lambda pt: pt["speedup_fused_vs_dedup"])
    tuned_pts = [pt for pt in points if pt["kind"] == "tuned"]
    headline_tuned = max(tuned_pts, key=lambda pt: pt["N"])
    report = {
        "benchmark": "wallclock",
        "smoke": bool(args.smoke),
        "host": host_info(),
        "description": (
            "Host wall-clock of the numeric simulation across execution "
            "tiers (seed / dedup / fused-panel HEMM).  Modeled "
            "makespans and CommStats verified "
            "bit-identical on every point in every mode; dedup numerics "
            "bit-identical to seed; fused numerics within 1e-13*||H|| "
            "and checked against a serial eigvalsh oracle."
        ),
        "target_solve_speedup_fused_vs_dedup": TARGET_SOLVE_SPEEDUP,
        "target_hemm_speedup_fused_vs_dedup": TARGET_HEMM_SPEEDUP,
        "headline_solve": headline,
        "best_hemm_phase": best_hemm,
        "target_met_full_solve": bool(
            headline["speedup_fused_vs_dedup"] >= TARGET_SOLVE_SPEEDUP
        ),
        "target_met_hemm_phase": bool(
            best_hemm["speedup_fused_vs_dedup"] >= TARGET_HEMM_SPEEDUP
        ),
        "headline_tuned": headline_tuned,
        "target_met_tuned": bool(headline_tuned["target_met_tuned"]),
        "note": (
            "The fused tier replaces the p*q per-block GEMMs with p "
            "panel GEMMs and folds the B->C reduction into the GEMM "
            "k-dimension.  Its headroom is the gap between many-small-GEMM "
            "and one-large-GEMM throughput plus the removed host-side "
            "allreduce summation; on this container's single-core BLAS "
            "the small blocks already run near peak, so the measured "
            "wins sit far below the ISSUE's 1.8x/2.5x aspirational "
            "targets (set with a multi-core BLAS in mind).  The "
            "enforced floor (CI --smoke) is fused >= seed on the full "
            "solve."
        ),
        "points": points,
    }
    write_report(
        report,
        f"wallclock tier benchmark -> "
        f"{'nothing written (smoke)' if args.smoke else JSON_PATH}\n"
        f"headline solve  N={headline['N']} grid={headline['grid']}: "
        f"dedup x{headline['speedup_dedup']:.2f}  "
        f"fused x{headline['speedup_fused']:.2f}\n"
        f"best HEMM phase grid={best_hemm['grid']}: "
        f"fused-vs-dedup x{best_hemm['speedup_fused_vs_dedup']:.2f}",
    )

    if args.smoke and headline["speedup_fused"] < 1.0:
        print(
            f"SMOKE GATE FAILED: fused full-solve speedup "
            f"{headline['speedup_fused']:.3f} < 1.0 over the seed path",
            file=sys.stderr,
        )
        sys.exit(1)
    if args.smoke and not headline_tuned["target_met_tuned"]:
        print(
            "SMOKE GATE FAILED: autotuned configuration modeled slower "
            f"than the untuned default (solve x"
            f"{headline_tuned['speedup_modeled_solve']:.3f}, dry run x"
            f"{headline_tuned['speedup_modeled_dryrun']:.3f})",
            file=sys.stderr,
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
