"""Eigensolver-as-a-service throughput benchmark (DESIGN.md §5i).

Two experiments through :class:`repro.service.EigenService`:

* **sequence point** — a 4-step correlated SCF-like sequence on the
  ISSUE's 2x4 NCCL grid (one 8-rank shard), solved cold (warm-start
  cache off) and warm (subspace + spectral bounds + degree-plan reuse).
  The acceptance metric is the total Chebyshev-filter MatVec count:
  warm must use >= 1.3x fewer filter MatVecs than cold across the
  sequence.  Modeled time-to-solution and Lanczos savings ride along.
* **throughput point** — a mixed multi-tenant workload (two sequences
  interleaved with one-shot jobs, priorities and quotas active) packed
  onto two 4-rank shards, cold vs warm: modeled jobs/hour, per-job
  queue waits and warm-hit counts.

Results append a ``service`` section to ``BENCH_wallclock.json`` with
honest ``target_met_*`` flags.

Run:  ``PYTHONPATH=src python benchmarks/bench_service_throughput.py [--smoke]``

``--smoke`` (CI) shrinks problem sizes and **gates**: nonzero exit when
the filter-MatVec target is missed or any job fails to converge.
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
from repro.service import EigenService, SolveJob, scf_sequence

JSON_PATH = ROOT / "BENCH_wallclock.json"
RESULT_PATH = RESULTS_DIR / "BENCH_service_throughput.json"

#: ISSUE acceptance target: a 4-step warm-started sequence uses >= 1.3x
#: fewer total filter MatVecs than the same sequence solved cold
TARGET_SEQUENCE_MATVEC_RATIO = 1.3


def _run_sequence(hams, nev, nex, *, warm: bool):
    """The sequence on one 8-rank shard (the 2x4 NCCL grid)."""
    svc = EigenService(total_ranks=8, n_shards=1, tune="off", warmstart=warm)
    for k, H in enumerate(hams):
        svc.submit(SolveJob(H=H, nev=nev, nex=nex, sequence_id="scf",
                            step=k, seed=50 + k))
    t0 = time.perf_counter()
    results = svc.run()
    wall = time.perf_counter() - t0
    assert all(r.converged for r in results), \
        [f"{r.job_id}: {r.error}" for r in results if not r.converged]
    return results, wall


def sequence_point(N, nev, nex, steps, drift):
    hams = scf_sequence(N, steps, seed=13, drift=drift)
    warm_res, warm_wall = _run_sequence(hams, nev, nex, warm=True)
    cold_res, cold_wall = _run_sequence(hams, nev, nex, warm=False)

    warm_fmv = sum(r.filter_matvecs for r in warm_res)
    cold_fmv = sum(r.filter_matvecs for r in cold_res)
    warm_span = max(r.finish_time for r in warm_res)
    cold_span = max(r.finish_time for r in cold_res)
    ratio = cold_fmv / warm_fmv

    point = {
        "kind": "sequence",
        "N": N,
        "nev": nev,
        "nex": nex,
        "steps": steps,
        "drift": drift,
        "grid": "2x4",
        "backend": "nccl",
        "filter_matvecs_cold": int(cold_fmv),
        "filter_matvecs_warm": int(warm_fmv),
        "filter_matvec_ratio": round(ratio, 3),
        "iterations_cold": int(sum(r.iterations for r in cold_res)),
        "iterations_warm": int(sum(r.iterations for r in warm_res)),
        "iterations_saved": int(sum(r.iterations_saved for r in warm_res)),
        "warm_hits": sum(1 for r in warm_res if r.warm_hit),
        "modeled_sequence_s_cold": round(cold_span, 6),
        "modeled_sequence_s_warm": round(warm_span, 6),
        "modeled_speedup": round(cold_span / warm_span, 3),
        "wall_s_cold": round(cold_wall, 3),
        "wall_s_warm": round(warm_wall, 3),
        "per_step_warm": [
            {"step": r.step, "warmstart": r.warmstart,
             "iterations": r.iterations, "filter_matvecs": r.filter_matvecs}
            for r in warm_res
        ],
        "target_sequence_matvec_ratio": TARGET_SEQUENCE_MATVEC_RATIO,
        "target_met_sequence_matvecs": bool(
            ratio >= TARGET_SEQUENCE_MATVEC_RATIO
        ),
    }
    return point


def _mixed_workload(N, nev, nex, seq_steps, drift):
    """Two tenant sequences interleaved with one-shot jobs."""
    jobs = []
    for t, tenant in enumerate(("alice", "bob")):
        for k, H in enumerate(scf_sequence(N, seq_steps, seed=20 + t,
                                           drift=drift)):
            jobs.append(SolveJob(H=H, nev=nev, nex=nex,
                                 sequence_id=f"scf-{tenant}", step=k,
                                 seed=60 + 10 * t + k, tenant=tenant))
    for j in range(2):
        H = scf_sequence(N, 1, seed=40 + j)[0]
        jobs.append(SolveJob(H=H, nev=max(4, nev // 2),
                             nex=max(2, nex // 2), tenant="carol",
                             priority=1, seed=80 + j))
    return jobs


def throughput_point(N, nev, nex, seq_steps, drift):
    def run(warm):
        svc = EigenService(total_ranks=8, n_shards=2, tune="fast",
                           warmstart=warm, quota=8)
        for job in _mixed_workload(N, nev, nex, seq_steps, drift):
            svc.submit(job)
        t0 = time.perf_counter()
        results = svc.run()
        wall = time.perf_counter() - t0
        return results, wall

    warm_res, warm_wall = run(True)
    cold_res, cold_wall = run(False)
    assert all(r.converged for r in warm_res + cold_res), \
        [f"{r.job_id}: {r.error}"
         for r in warm_res + cold_res if not r.converged]

    def jobs_per_hour(results):
        horizon = max(r.finish_time for r in results)
        return len(results) / horizon * 3600.0

    warm_jph = jobs_per_hour(warm_res)
    cold_jph = jobs_per_hour(cold_res)
    waits = [r.queue_wait for r in warm_res if r.queue_wait is not None]
    point = {
        "kind": "throughput",
        "N": N,
        "nev": nev,
        "nex": nex,
        "jobs": len(warm_res),
        "shards": 2,
        "ranks_per_shard": 4,
        "backend": "nccl",
        "tune": "fast",
        "tuned_label": warm_res[0].tuned_label,
        "modeled_jobs_per_hour_cold": round(cold_jph, 1),
        "modeled_jobs_per_hour_warm": round(warm_jph, 1),
        "throughput_gain": round(warm_jph / cold_jph, 3),
        "warm_hits": sum(1 for r in warm_res if r.warm_hit),
        "mean_queue_wait_s": round(float(np.mean(waits)), 6),
        "max_queue_wait_s": round(float(np.max(waits)), 6),
        "wall_s_cold": round(cold_wall, 3),
        "wall_s_warm": round(warm_wall, 3),
        "target_met_all_jobs_done": True,  # asserted above
    }
    return point


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="small problem sizes (CI); enforces the acceptance gates",
    )
    args = ap.parse_args(argv)

    if args.smoke:
        seq = (280, 36, 18, 4, 1e-3)
        thr = (160, 20, 10, 2, 1e-3)
    else:
        seq = (400, 48, 24, 4, 1e-3)
        thr = (240, 28, 14, 3, 1e-3)

    pt_seq = sequence_point(*seq)
    print(
        f"sequence   N={pt_seq['N']} {pt_seq['steps']} steps grid=2x4 nccl  "
        f"filter MatVecs cold={pt_seq['filter_matvecs_cold']} "
        f"warm={pt_seq['filter_matvecs_warm']} "
        f"(x{pt_seq['filter_matvec_ratio']:.2f} fewer, "
        f"target >= x{TARGET_SEQUENCE_MATVEC_RATIO}); "
        f"modeled speedup x{pt_seq['modeled_speedup']:.2f}"
    )
    pt_thr = throughput_point(*thr)
    print(
        f"throughput N={pt_thr['N']} {pt_thr['jobs']} jobs on 2 shards  "
        f"cold {pt_thr['modeled_jobs_per_hour_cold']:.0f} jobs/h, "
        f"warm {pt_thr['modeled_jobs_per_hour_warm']:.0f} jobs/h "
        f"(x{pt_thr['throughput_gain']:.2f}); "
        f"{pt_thr['warm_hits']} warm hits, tuned: {pt_thr['tuned_label']}"
    )

    section = {
        "benchmark": "service",
        "smoke": bool(args.smoke),
        "host": host_info(),
        "description": (
            "Eigensolver-as-a-service (DESIGN.md §5i): a 4-step "
            "warm-started SCF sequence on the 2x4 NCCL grid vs the same "
            "sequence cold (total Chebyshev-filter MatVecs is the "
            "acceptance metric), plus a mixed multi-tenant workload on "
            "two shards reporting modeled jobs/hour cold vs warm."
        ),
        "target_sequence_matvec_ratio": TARGET_SEQUENCE_MATVEC_RATIO,
        "sequence": pt_seq,
        "throughput": pt_thr,
        "target_met_sequence_matvecs": bool(
            pt_seq["target_met_sequence_matvecs"]
        ),
        "target_met_all_jobs_done": bool(pt_thr["target_met_all_jobs_done"]),
    }

    report = {}
    if JSON_PATH.exists():
        report = json.loads(JSON_PATH.read_text())
    report["service"] = section
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_PATH.write_text(json.dumps(section, indent=2) + "\n")
    emit(
        "bench_service_throughput",
        f"service benchmark -> {JSON_PATH} (section 'service') and "
        f"{RESULT_PATH}\n"
        f"4-step sequence filter MatVecs: "
        f"x{pt_seq['filter_matvec_ratio']:.2f} fewer warm "
        f"(target >= x{TARGET_SEQUENCE_MATVEC_RATIO})\n"
        f"mixed workload: {pt_thr['modeled_jobs_per_hour_cold']:.0f} -> "
        f"{pt_thr['modeled_jobs_per_hour_warm']:.0f} modeled jobs/hour "
        f"(x{pt_thr['throughput_gain']:.2f})",
    )

    if args.smoke and not section["target_met_sequence_matvecs"]:
        print(
            f"SMOKE GATE FAILED: sequence filter-MatVec ratio "
            f"x{pt_seq['filter_matvec_ratio']:.3f} < "
            f"x{TARGET_SEQUENCE_MATVEC_RATIO}",
            file=sys.stderr,
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
