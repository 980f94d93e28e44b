"""Mixed-precision cascade + compressed-collective benchmark (§5g/§5j).

Four experiments on the ISSUE's 2x4 NCCL grid:

* **phantom filter phase** — a paper-scale phantom replay (metadata-only
  buffers, cost model only) comparing the modeled Chebyshev filter-phase
  time of the fp64 baseline against the condest-gated narrow filters
  (``ConvergenceTrace.fixed`` records ``cond_est = 1.0``, so every
  tier's gate stays open for the whole replay — this isolates the
  *filter* effect the acceptance targets are stated over).  fp32 halves
  the HEMM word size; the emulated fp16/bf16 tiers charge 2-byte words
  and the calibrated half GEMM rate (4x by default).
* **phantom QR phase** — the same replay shape with the CholeskyQR2
  records routed through the §5j mixed first pass
  (``mCholeskyQR2[tier]``): narrow Gram + Cholesky + TRSM, fp64 second
  pass, modeled QR-phase speedup per tier.
* **compressed-collective bytes** — numeric pipelined HEMM applies
  measuring the exact allreduce byte volume per configuration: fp32
  buffers move exactly 0.5x the fp64 bytes, and a bf16 or fp16 wire
  payload on fp32 buffers moves exactly 0.25x.  Per-communicator
  ``intra + inter == bytes_moved`` is asserted on every run.
* **numeric solve** — full solves where the precision policy actually
  runs: the narrow tiers engage while the condition estimate allows,
  promote (sticky) on the residual floors, and the final eigenpairs are
  checked against a serial ``eigvalsh`` oracle at fp64 tolerance.  The
  half cascade runs at ``deg=2`` (the iteration-1 condition estimate
  grows with the planned degree; small degrees are where the half gates
  are open).  The explicit ``fp64/none`` configuration is asserted
  bit-identical to the ambient default (numerics, CommStats, makespan).

Acceptance gates (recorded as ``target_met_*`` in a ``mixed_precision``
section appended to ``BENCH_wallclock.json``):

* modeled filter-phase speedup of the fp32 filter >= 1.3x;
* modeled filter-phase speedup of the half cascade (bf16+bf16) >= 2.5x;
* modeled QR-phase speedup of mixed CholeskyQR2 (fp16 first pass)
  >= 1.3x;
* filter allreduce bytes of the fp32+compressed configuration <= 0.5x
  the fp64 baseline (exact halving is expected).

Run:  ``PYTHONPATH=src python benchmarks/bench_mixed_precision.py [--smoke]``

``--smoke`` (CI) shrinks the problem sizes and **gates**: it exits
nonzero if any acceptance target is missed, if the fp64 configuration
is not bit-identical to the seed path, or if a mixed-precision solve
misses fp64 accuracy.
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

from benchmarks._common import (
    RESULTS_DIR, emit, host_info, make_phantom_solver)
from repro import ChaseConfig, ChaseSolver, ConvergenceTrace
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.runtime import CommBackend, ExecutionConfig, Grid2D, VirtualCluster

JSON_PATH = ROOT / "BENCH_wallclock.json"
RESULT_PATH = RESULTS_DIR / "BENCH_mixed_precision.json"

#: ISSUE acceptance targets (2x4 NCCL grid)
TARGET_FILTER_SPEEDUP = 1.3
TARGET_CASCADE_FILTER_SPEEDUP = 2.5
TARGET_QR_SPEEDUP = 1.3
TARGET_ALLREDUCE_BYTES_RATIO = 0.5

#: (filter_dtype, comm_compress, pipelined) configurations exercised.
#: Compression only rides the pipelined (chunked-iallreduce) path and
#: only while the apply runs in the narrow working dtype, so the
#: compressed configs enable the pipeline.
CONFIGS = (
    ("fp64", "none", False),
    ("fp32", "none", False),
    ("fp32", "fp32", True),
    ("fp32", "bf16", True),
    ("bf16", "bf16", True),
    ("fp16", "fp16", True),
)


def _precision(fdt: str, comp: str, pipelined: bool,
               chunks: int = 4) -> ExecutionConfig:
    return ExecutionConfig(filter_dtype=fdt, comm_compress=comp,
                           pipeline_chunks=chunks if pipelined else 0)


def _grid(p: int, q: int, config: ExecutionConfig | None = None) -> Grid2D:
    cluster = VirtualCluster(p * q, backend=CommBackend.NCCL, config=config)
    return Grid2D(cluster, p, q)


def _label(fdt: str, comp: str) -> str:
    return fdt if comp == "none" else f"{fdt}+{comp}"


# ---------------------------------------------------------------------------
# phantom filter phase — the acceptance target's modeled speedup
# ---------------------------------------------------------------------------


def phantom_filter_point(N, nev, nex, deg, iters):
    """Paper-scale phantom replay on the 2-node (8-rank, 2x4) NCCL grid.

    ``ConvergenceTrace.fixed`` records ``cond_est = 1.0``; the policy
    keeps the fp32 gate open for every iteration, so the fp64/fp32 gap
    is the full filter-phase effect of the narrow working dtype.
    """
    trace = ConvergenceTrace.fixed(iters, nev + nex, deg=deg)

    def run(fdt, comp, pipelined):
        solver = make_phantom_solver(
            2, N, nev, nex, CommBackend.NCCL,
            config=_precision(fdt, comp, pipelined))
        res = solver.solve_phantom(trace)
        bytes_total = sum(s[2] for s in solver.grid.comm_stats())
        return res, bytes_total

    out = {}
    for fdt, comp, pipelined in CONFIGS:
        res, bytes_total = run(fdt, comp, pipelined)
        assert all(tok == fdt for tok in res.precision_log), \
            "phantom replay left the requested filter dtype!"
        out[_label(fdt, comp)] = (res, bytes_total)

    base, base_bytes = out["fp64"]
    point = {
        "kind": "phantom_filter",
        "N": N,
        "nev": nev,
        "nex": nex,
        "deg": deg,
        "iterations": iters,
        "grid": "2x4",
        "backend": "nccl",
        "modeled_filter_fp64_s": round(base.timings["Filter"].total, 6),
        "modeled_makespan_fp64_s": round(base.makespan, 6),
        "comm_bytes_fp64": int(base_bytes),
    }
    for label, (res, bytes_total) in out.items():
        if label == "fp64":
            continue
        ftime = res.timings["Filter"].total
        point.update({
            f"modeled_filter_{label}_s": round(ftime, 6),
            f"modeled_makespan_{label}_s": round(res.makespan, 6),
            f"comm_bytes_{label}": int(bytes_total),
            f"speedup_modeled_filter_{label}": round(
                base.timings["Filter"].total / ftime, 3
            ),
            f"speedup_modeled_makespan_{label}": round(
                base.makespan / res.makespan, 3
            ),
            f"solve_bytes_ratio_{label}": round(bytes_total / base_bytes, 4),
        })
    point["target_filter_speedup"] = TARGET_FILTER_SPEEDUP
    point["target_met_filter_speedup"] = bool(
        point["speedup_modeled_filter_fp32"] >= TARGET_FILTER_SPEEDUP
    )
    point["target_cascade_filter_speedup"] = TARGET_CASCADE_FILTER_SPEEDUP
    point["target_met_cascade_filter_speedup"] = bool(
        point["speedup_modeled_filter_bf16+bf16"]
        >= TARGET_CASCADE_FILTER_SPEEDUP
    )
    return point


# ---------------------------------------------------------------------------
# phantom QR phase — mixed CholeskyQR2 modeled speedup
# ---------------------------------------------------------------------------


def phantom_qr_point(N, nev, nex, deg, iters):
    """Modeled QR-phase time of CholeskyQR2 vs the §5j mixed variants.

    The replay dispatches on the recorded variant string, exactly as a
    tuned-config dry run does: ``mCholeskyQR2[tier]`` charges the
    narrow Gram + Cholesky + TRSM first pass (2-byte words and the half
    GEMM rate for fp16/bf16, plus the compressed Gram allreduce) and
    the fp64 second pass.
    """
    def run(variant):
        trace = ConvergenceTrace.fixed(
            iters, nev + nex, deg=deg, qr_variant=variant)
        solver = make_phantom_solver(2, N, nev, nex, CommBackend.NCCL)
        return solver.solve_phantom(trace)

    base = run("CholeskyQR2")
    point = {
        "kind": "phantom_qr",
        "N": N,
        "nev": nev,
        "nex": nex,
        "iterations": iters,
        "grid": "2x4",
        "backend": "nccl",
        "modeled_qr_fp64_s": round(base.timings["QR"].total, 6),
    }
    for token in ("fp16", "bf16", "fp32"):
        res = run(f"mCholeskyQR2[{token}]")
        qtime = res.timings["QR"].total
        point.update({
            f"modeled_qr_{token}_s": round(qtime, 6),
            f"speedup_modeled_qr_{token}": round(
                base.timings["QR"].total / qtime, 3
            ),
        })
    point["target_qr_speedup"] = TARGET_QR_SPEEDUP
    point["target_met_qr_speedup"] = bool(
        point["speedup_modeled_qr_fp16"] >= TARGET_QR_SPEEDUP
    )
    return point


# ---------------------------------------------------------------------------
# compressed collectives — exact allreduce byte accounting
# ---------------------------------------------------------------------------


def comm_bytes_point(N, ne, p, q, chunks=4):
    """Allreduce bytes of pipelined HEMM applies per wire configuration.

    This is the filter's inner loop in isolation, where the byte target
    is exact: fp32 work buffers halve the reduced payload, and a bf16
    wire payload halves it again.  The full-solve byte ratio (reported
    by the phantom point) sits above 0.5 because QR / Rayleigh-Ritz /
    residual reductions always stay fp64.
    """
    rng = np.random.default_rng(42)
    A = rng.standard_normal((N, N))
    H = (A + A.T) / 2
    V = rng.standard_normal((N, ne))

    def run(x_dtype, payload):
        grid = _grid(p, q, ExecutionConfig(comm_compress=payload,
                                           pipeline_chunks=chunks))
        Hd = DistributedHermitian.from_dense(grid, H)
        hemm = DistributedHemm(Hd)
        C = DistributedMultiVector.from_global(
            grid, V.astype(x_dtype), Hd.rowmap, "C"
        )
        hemm.apply(C, pipeline=True)
        comms = [grid.col_comm(j) for j in range(grid.q)] + \
                [grid.row_comm(i) for i in range(grid.p)]
        for comm in comms:
            s = comm.stats
            assert s.intra_bytes + s.inter_bytes == s.bytes_moved, \
                "per-level byte split does not conserve total bytes!"
        return sum(s[2] for s in grid.comm_stats())

    b_fp64 = run(np.float64, "none")
    b_fp32 = run(np.float32, "none")
    b_fp32_fp32 = run(np.float32, "fp32")
    b_fp32_bf16 = run(np.float32, "bf16")
    b_fp32_fp16 = run(np.float32, "fp16")
    b_fp64_fp32 = run(np.float64, "fp32")  # gated off outside fp32 regime

    point = {
        "kind": "comm_bytes",
        "N": N,
        "ne": ne,
        "grid": f"{p}x{q}",
        "backend": "nccl",
        "chunks": chunks,
        "allreduce_bytes_fp64": int(b_fp64),
        "allreduce_bytes_fp32": int(b_fp32),
        "allreduce_bytes_fp32+fp32": int(b_fp32_fp32),
        "allreduce_bytes_fp32+bf16": int(b_fp32_bf16),
        "allreduce_bytes_fp32+fp16": int(b_fp32_fp16),
        "ratio_fp32": round(b_fp32 / b_fp64, 6),
        "ratio_fp32+fp32": round(b_fp32_fp32 / b_fp64, 6),
        "ratio_fp32+bf16": round(b_fp32_bf16 / b_fp64, 6),
        "ratio_fp32+fp16": round(b_fp32_fp16 / b_fp64, 6),
        "fp64_payload_gated_off": bool(b_fp64_fp32 == b_fp64),
        "target_allreduce_bytes_ratio": TARGET_ALLREDUCE_BYTES_RATIO,
        "target_met_allreduce_bytes": bool(
            b_fp32_fp32 / b_fp64 <= TARGET_ALLREDUCE_BYTES_RATIO + 1e-12
        ),
    }
    assert point["fp64_payload_gated_off"], \
        "a compressed payload escaped the narrow-dtype gate!"
    assert b_fp32 * 2 == b_fp64, "fp32 buffers did not halve the bytes!"
    assert b_fp32_bf16 * 4 == b_fp64, "bf16 payload did not quarter the bytes!"
    assert b_fp32_fp16 * 4 == b_fp64, "fp16 payload did not quarter the bytes!"
    return point


# ---------------------------------------------------------------------------
# numeric solve — policy in the loop, fp64 accuracy gate
# ---------------------------------------------------------------------------


def solve_point(N, nev, nex, p, q, deg, repeats):
    """Full numeric solves across the precision configurations.

    ``deg`` is chosen so the first-iteration condition estimate sits
    below the fp32 gate (higher degrees polish the filtered block past
    the fp32 residual floor in a single sweep on problems this small, so
    the policy never engages — see ``tests/test_mixed_precision.py``).
    """
    H_rng = np.random.default_rng(1234)
    A = H_rng.standard_normal((N, N))
    H = (A + A.T) / 2
    oracle = np.linalg.eigvalsh(H)[:nev]
    scale = max(1.0, float(np.abs(oracle).max()))

    def run(fdt, comp, pipelined):
        grid = _grid(p, q, _precision(fdt, comp, pipelined))
        Hd = DistributedHermitian.from_dense(grid, H)
        solver = ChaseSolver(
            grid, Hd, ChaseConfig(nev=nev, nex=nex, deg=deg)
        )
        res = solver.solve(rng=np.random.default_rng(7))
        return res, grid.comm_stats()

    def timed(fdt, comp, pipelined):
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            got = run(fdt, comp, pipelined)
            wall = time.perf_counter() - t0
            if best is None or wall < best[0]:
                best = (wall, got)
        return best

    # default config == explicit fp64/none, bit for bit
    wall_amb, (res_amb, stats_amb) = timed("fp64", "none", False)
    grid = _grid(p, q)
    Hd = DistributedHermitian.from_dense(grid, H)
    res_seed = ChaseSolver(
        grid, Hd, ChaseConfig(nev=nev, nex=nex, deg=deg)
    ).solve(rng=np.random.default_rng(7))
    stats_seed = grid.comm_stats()

    point = {
        "kind": "solve",
        "N": N,
        "nev": nev,
        "nex": nex,
        "deg": deg,
        "grid": f"{p}x{q}",
        "backend": "nccl",
        "wall_s_fp64": round(wall_amb, 4),
        "modeled_makespan_fp64_s": round(res_amb.makespan, 6),
        "iterations_fp64": res_amb.iterations,
        "fp64_bit_identical_to_seed": bool(
            np.array_equal(res_amb.eigenvalues, res_seed.eigenvalues)
            and res_amb.makespan == res_seed.makespan
            and stats_amb == stats_seed
        ),
    }
    for fdt, comp, pipelined in CONFIGS[1:4]:
        label = _label(fdt, comp)
        wall, (res, _stats) = timed(fdt, comp, pipelined)
        err = float(np.abs(res.eigenvalues - oracle).max())
        point.update({
            f"wall_s_{label}": round(wall, 4),
            f"modeled_makespan_{label}_s": round(res.makespan, 6),
            f"iterations_{label}": res.iterations,
            f"fp32_filter_iterations_{label}":
                res.precision_log.count("fp32"),
            f"promote_reason_{label}": res.precision_promote_reason,
            f"converged_{label}": bool(res.converged),
            f"max_dlambda_vs_oracle_{label}": err,
            f"accurate_at_fp64_tol_{label}": bool(err <= 1e-8 * scale),
        })
        assert point[f"converged_{label}"], f"{label} solve did not converge!"
        assert point[f"accurate_at_fp64_tol_{label}"], \
            f"{label} solve missed fp64 accuracy!"
        assert point[f"fp32_filter_iterations_{label}"] > 0, \
            f"{label}: the fp32 filter never engaged!"
    assert point["fp64_bit_identical_to_seed"], \
        "explicit fp64/none diverged from the ambient default!"

    # half cascade: deg=2 keeps the iteration-1 condition estimate
    # under the half-tier gates, so the narrow lattice actually filters
    for fdt, comp, pipelined in CONFIGS[4:]:
        label = _label(fdt, comp)
        grid = _grid(p, q, _precision(fdt, comp, pipelined))
        Hd = DistributedHermitian.from_dense(grid, H)
        res = ChaseSolver(
            grid, Hd, ChaseConfig(nev=nev, nex=nex, deg=2)
        ).solve(rng=np.random.default_rng(7))
        err = float(np.abs(res.eigenvalues - oracle).max())
        point.update({
            f"iterations_{label}": res.iterations,
            f"half_filter_iterations_{label}":
                res.precision_log.count(fdt),
            f"converged_{label}": bool(res.converged),
            f"max_dlambda_vs_oracle_{label}": err,
            f"accurate_at_fp64_tol_{label}": bool(err <= 1e-8 * scale),
        })
        assert point[f"converged_{label}"], f"{label} solve did not converge!"
        assert point[f"accurate_at_fp64_tol_{label}"], \
            f"{label} solve missed fp64 accuracy!"
        assert point[f"half_filter_iterations_{label}"] > 0, \
            f"{label}: the half-tier filter never engaged!"
    return point


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="tiny problem sizes, single repeat (CI); enforces the gates",
    )
    ap.add_argument(
        "--campaign-db",
        default=None,
        help="also record every emitted table into this campaign DB "
             "(shared results store, DESIGN.md §5k); the declarative "
             "port of this bench is campaigns/mixed_precision.yml",
    )
    ap.add_argument(
        "--campaign",
        default="mixed_precision",
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


def _run(args) -> None:
    if args.smoke:
        repeats = 1
        phantom = (12_000, 600, 200, 20, 1)
        comm = (400, 64, 2, 4)
        solve = (300, 32, 16, 2, 4, 10)
    else:
        repeats = 2
        phantom = (45_000, 2250, 750, 20, 3)   # paper weak-scaling shape
        comm = (1200, 160, 2, 4)
        solve = (800, 96, 32, 2, 4, 10)

    pt_phantom = phantom_filter_point(*phantom)
    print(
        f"phantom filter  N={pt_phantom['N']} grid=2x4 nccl  "
        f"fp32 x{pt_phantom['speedup_modeled_filter_fp32']:.2f}  "
        f"fp32+fp32 x{pt_phantom['speedup_modeled_filter_fp32+fp32']:.2f}  "
        f"bf16+bf16 x{pt_phantom['speedup_modeled_filter_bf16+bf16']:.2f}  "
        f"fp16+fp16 x{pt_phantom['speedup_modeled_filter_fp16+fp16']:.2f}"
    )
    pt_qr = phantom_qr_point(*phantom)
    print(
        f"phantom QR      N={pt_qr['N']} grid=2x4 nccl  "
        f"mixed fp16 x{pt_qr['speedup_modeled_qr_fp16']:.2f}  "
        f"bf16 x{pt_qr['speedup_modeled_qr_bf16']:.2f}  "
        f"fp32 x{pt_qr['speedup_modeled_qr_fp32']:.2f}"
    )
    pt_comm = comm_bytes_point(*comm)
    print(
        f"allreduce bytes N={pt_comm['N']} grid=2x4 nccl  "
        f"fp32 x{pt_comm['ratio_fp32']:.3f}  "
        f"fp32+fp32 x{pt_comm['ratio_fp32+fp32']:.3f}  "
        f"fp32+bf16 x{pt_comm['ratio_fp32+bf16']:.3f}  "
        f"fp32+fp16 x{pt_comm['ratio_fp32+fp16']:.3f}"
    )
    pt_solve = solve_point(*solve, repeats)
    print(
        f"numeric solve   N={pt_solve['N']} grid=2x4 nccl  "
        f"fp32 engaged {pt_solve['fp32_filter_iterations_fp32']} iter(s), "
        f"bf16 engaged "
        f"{pt_solve['half_filter_iterations_bf16+bf16']} iter(s), "
        f"err {pt_solve['max_dlambda_vs_oracle_fp32']:.2e}, "
        f"fp64 bit-identical: {pt_solve['fp64_bit_identical_to_seed']}"
    )

    section = {
        "benchmark": "mixed_precision",
        "smoke": bool(args.smoke),
        "host": host_info(),
        "description": (
            "Condest-gated three-precision Chebyshev cascade + mixed "
            "CholeskyQR2 + compressed collectives (DESIGN.md §5g/§5j) "
            "on the 2x4 NCCL grid.  The phantom points isolate the "
            "modeled filter- and QR-phase speedups; the comm point "
            "measures exact allreduce byte ratios of the pipelined "
            "filter reductions; the numeric point runs the promotion "
            "policy in the loop and checks eigenpairs against a "
            "serial oracle at fp64 tolerance."
        ),
        "target_filter_speedup": TARGET_FILTER_SPEEDUP,
        "target_cascade_filter_speedup": TARGET_CASCADE_FILTER_SPEEDUP,
        "target_qr_speedup": TARGET_QR_SPEEDUP,
        "target_allreduce_bytes_ratio": TARGET_ALLREDUCE_BYTES_RATIO,
        "phantom_filter": pt_phantom,
        "phantom_qr": pt_qr,
        "comm_bytes": pt_comm,
        "solve": pt_solve,
        "target_met_filter_speedup": bool(
            pt_phantom["target_met_filter_speedup"]
        ),
        "target_met_cascade_filter_speedup": bool(
            pt_phantom["target_met_cascade_filter_speedup"]
        ),
        "target_met_qr_speedup": bool(pt_qr["target_met_qr_speedup"]),
        "target_met_allreduce_bytes": bool(
            pt_comm["target_met_allreduce_bytes"]
        ),
    }

    # append the gates into the wallclock report (created by
    # bench_wallclock.py; tolerate running standalone)
    report = {}
    if JSON_PATH.exists():
        report = json.loads(JSON_PATH.read_text())
    report["mixed_precision"] = section
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_PATH.write_text(json.dumps(section, indent=2) + "\n")
    emit(
        "bench_mixed_precision",
        f"mixed-precision benchmark -> {JSON_PATH} (section "
        f"'mixed_precision') and {RESULT_PATH}\n"
        f"modeled filter speedup (fp32, 2x4 nccl): "
        f"x{pt_phantom['speedup_modeled_filter_fp32']:.2f} "
        f"(target >= x{TARGET_FILTER_SPEEDUP}); half cascade "
        f"x{pt_phantom['speedup_modeled_filter_bf16+bf16']:.2f} "
        f"(target >= x{TARGET_CASCADE_FILTER_SPEEDUP})\n"
        f"modeled QR speedup (mixed fp16 first pass): "
        f"x{pt_qr['speedup_modeled_qr_fp16']:.2f} "
        f"(target >= x{TARGET_QR_SPEEDUP})\n"
        f"allreduce bytes (fp32+compressed): "
        f"x{pt_comm['ratio_fp32+fp32']:.3f} "
        f"(target <= x{TARGET_ALLREDUCE_BYTES_RATIO}); "
        f"bf16 payload x{pt_comm['ratio_fp32+bf16']:.3f}",
    )

    if args.smoke:
        failed = []
        if not section["target_met_filter_speedup"]:
            failed.append(
                f"modeled filter speedup "
                f"x{pt_phantom['speedup_modeled_filter_fp32']:.3f} "
                f"< x{TARGET_FILTER_SPEEDUP}"
            )
        if not section["target_met_cascade_filter_speedup"]:
            failed.append(
                f"modeled cascade filter speedup "
                f"x{pt_phantom['speedup_modeled_filter_bf16+bf16']:.3f} "
                f"< x{TARGET_CASCADE_FILTER_SPEEDUP}"
            )
        if not section["target_met_qr_speedup"]:
            failed.append(
                f"modeled mixed-QR speedup "
                f"x{pt_qr['speedup_modeled_qr_fp16']:.3f} "
                f"< x{TARGET_QR_SPEEDUP}"
            )
        if not section["target_met_allreduce_bytes"]:
            failed.append(
                f"compressed allreduce bytes ratio "
                f"x{pt_comm['ratio_fp32+fp32']:.3f} "
                f"> x{TARGET_ALLREDUCE_BYTES_RATIO}"
            )
        if failed:
            print(
                "SMOKE GATE FAILED: " + "; ".join(failed), file=sys.stderr
            )
            sys.exit(1)


if __name__ == "__main__":
    main()
