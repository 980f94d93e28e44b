"""Command-line interface.

Eight subcommands mirror the library's main entry points::

    python -m repro solve --n 600 --nev 30                 # serial solve
    python -m repro solve --n 400 --nev 20 --distributed \\
                          --ranks 4 --backend nccl         # simulated cluster
    python -m repro suite --scale 260                      # Table 1 suite
    python -m repro weak --nodes 1 4 16 64                 # Fig. 3a points
    python -m repro strong --nodes 4 36 144                # Fig. 3b points
    python -m repro tune --ranks 8 --n 800 --nev 96        # autotuner table
    python -m repro serve --jobs jobs.json                 # eigensolver
                                                           # service (§5i)
    python -m repro reproduce -o report.txt                # condensed
                                                           # end-to-end run
    python -m repro campaign run \\
        --spec campaigns/mixed_precision.yml               # declarative
                                                           # campaign (§5k)

``tune`` ranks grid shape x collective algorithm x HEMM fusion by
modeled makespan (model-only dry runs, no numerics);
``solve --distributed --tuned`` runs the tuner first and solves under
the winning configuration.

``solve`` and ``serve`` read their flags only: nothing in the package
reads the environment, so a setting is made where the object it
configures is built (DESIGN.md, "Execution configuration").
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from repro import ChaseConfig, ChaseSolver, ConvergenceTrace, chase_serial
from repro.core.lanczos import SpectralBounds
from repro.distributed import DistributedHermitian
from repro.matrices import TABLE1, build_problem, uniform_matrix
from repro.perfmodel.collectives import CollectiveAlgo
from repro.reporting import render_series, render_table
from repro.runtime import (
    CommBackend, ExecutionConfig, Grid2D, VirtualCluster, blas)
from repro.runtime.config import PRECISION_MODES
from repro.runtime.transport import BACKEND_TOKENS, split_backend

_COLL_ALGOS = tuple(a.value for a in CollectiveAlgo)


def _bounded(kind, ok, need: str):
    """An argparse type: ``kind(text)``, refused with a usage error
    (exit 2) unless ``ok`` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: {need}")
        return value
    parse.__name__ = kind.__name__
    return parse


_RANKS = _bounded(int, lambda v: v >= 1, "need at least one rank")


def _precision_line(res) -> str:
    """What a requested fp32 filter actually did (DESIGN.md §5g)."""
    from repro.core.precision import DEFAULT_COND_LIMIT

    plog = res.precision_log
    admitted = plog.count("fp32")
    if admitted:
        reason = res.precision_promote_reason
        promoted = f", promoted to fp64 ({reason})" if reason else ""
        return (f"mixed precision: fp32 filter on "
                f"{admitted}/{len(plog)} iterations{promoted}")
    # nothing admitted means the very first gate was shut: iteration 1
    # has no residual history, so only the condition estimate can refuse
    return (f"mixed precision: fp32 requested, 0/{len(plog)} iterations "
            f"admitted — iteration-1 cond estimate "
            f"{res.trace.records[0].cond_est:.1e} above the "
            f"{DEFAULT_COND_LIMIT:.0e} gate")


def _solve_or_fail(solver: ChaseSolver, rng):
    """Run a solve, mapping an unrecoverable fault to ``None``."""
    from repro.runtime import FaultError

    try:
        return solver.solve(rng=rng)
    except FaultError as exc:
        print(f"unrecoverable fault: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return None


def _cmd_solve(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.problem:
        H, prob = build_problem(args.problem, N_target=args.n)
        nev, nex = prob.nev, prob.nex
        print(f"problem {prob.name}: N={prob.N}, nev={nev}, nex={nex}")
    else:
        H = uniform_matrix(args.n, rng=rng)
        nev = args.nev
        nex = args.nex if args.nex is not None else max(2, nev // 2)
        print(f"Uniform matrix: N={args.n}, nev={nev}, nex={nex}")
    cfg = ChaseConfig(nev=nev, nex=nex, tol=args.tol)

    # fault injection / checkpointing (DESIGN.md §5f)
    if (args.faults is not None or args.checkpoint is not None) \
            and not args.distributed:
        print("--faults/--checkpoint require --distributed", file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults is not None:
        from repro.runtime import FaultPlan

        fault_plan = FaultPlan.random(
            args.faults, args.ranks,
            horizon=args.fault_horizon, n_events=args.fault_events,
        )
        print(f"fault plan: seed={args.faults}, {len(fault_plan)} events "
              f"({', '.join(e.kind.value for e in fault_plan.events)})")
    solver_kw = dict(faults=fault_plan, checkpoint_every=args.checkpoint)

    if args.distributed:
        comm_backend, transport = split_backend(args.backend)
        # precision flags default to None: unset, they override nothing
        precision = {k: getattr(args, k) for k in ("filter_dtype", "qr_dtype")
                     if getattr(args, k) is not None}

        def solve_on(grid):
            Hd = DistributedHermitian.from_dense(grid, H)
            solver = ChaseSolver(grid, Hd, cfg, **solver_kw)
            return solver, _solve_or_fail(solver, rng)

        if args.tuned:
            from repro.perfmodel.autotune import applied, autotune

            report = autotune(
                args.ranks, H.shape[0], nev, nex,
                backend=comm_backend,
            )
            # the winner is fp64; precision flags are run-time requests
            best = report.best.config
            best = dataclasses.replace(best, execution=dataclasses.replace(
                best.execution, **precision))
            print(f"tuned config: {best.label()} "
                  f"(modeled x{report.speedup:.3f} vs default)")
            with applied(best, n_ranks=args.ranks, backend=comm_backend,
                         transport=transport) as grid:
                solver, res = solve_on(grid)
        else:
            with VirtualCluster(
                args.ranks, backend=comm_backend, transport=transport,
                topology=args.topology, collective_algo=args.coll_algo,
                config=ExecutionConfig(**precision),
            ) as cluster:
                grid = Grid2D(cluster)
                solver, res = solve_on(grid)
        if res is None:
            return 3
        print(f"simulated {grid.p}x{grid.q} grid, backend={args.backend}")
        if fault_plan is not None or args.checkpoint:
            final = solver.grid
            shrunk = (f", grid shrunk to {final.p}x{final.q}"
                      if final is not grid else "")
            print(f"fault tolerance: {res.recoveries} recoveries, "
                  f"{res.checkpoints} checkpoints{shrunk}")
        print(f"modeled time-to-solution: {res.makespan:.4f} s")
        if grid.cluster.config.filter_dtype != "fp64" and res.precision_log:
            print(_precision_line(res))
    else:
        res = chase_serial(H, cfg, rng=rng)
    print(f"converged: {res.converged} in {res.iterations} iterations, "
          f"{res.matvecs} MatVecs")
    print(f"QR variants: {res.qr_variants}")
    print(f"host BLAS pools: {blas.describe_line()}")
    k = min(10, nev)
    print(f"lowest {k} eigenvalues: {np.round(res.eigenvalues[:k], 8)}")
    return 0 if res.converged else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(TABLE1):
        H, prob = build_problem(name, N_target=args.scale)
        res = chase_serial(
            H, ChaseConfig(nev=prob.nev, nex=prob.nex),
            rng=np.random.default_rng(args.seed),
        )
        rows.append(
            [name, prob.N, prob.nev, prob.nex, res.iterations,
             res.matvecs, "yes" if res.converged else "NO"]
        )
    print(render_table(
        ["Name", "N", "nev", "nex", "Iters", "MatVecs", "Converged"],
        rows, title="Table 1 suite (scaled)",
    ))
    return 0


def _weak_point(nodes: int, backend: CommBackend, scheme: str) -> float:
    rpn, gpr = (1, 4) if scheme == "lms" else (4, 1)
    cluster = VirtualCluster(
        nodes * rpn, backend=backend, ranks_per_node=rpn,
        gpus_per_rank=gpr, phantom=True,
    )
    grid = Grid2D(cluster)
    N = 30_000 * int(round(np.sqrt(nodes)))
    Hd = DistributedHermitian.phantom(grid, N, np.float64)
    solver = ChaseSolver(
        grid, Hd, ChaseConfig(nev=2250, nex=750, deg=20), scheme=scheme
    )
    return solver.solve_phantom(ConvergenceTrace.fixed(1, 3000, deg=20)).makespan


def _cmd_weak(args: argparse.Namespace) -> int:
    nccl, std, lms = [], [], []
    for nodes in args.nodes:
        nccl.append(_weak_point(nodes, CommBackend.NCCL, "new"))
        std.append(_weak_point(nodes, CommBackend.MPI_STAGED, "new"))
        try:
            lms.append(_weak_point(nodes, CommBackend.MPI_STAGED, "lms"))
        except MemoryError:
            lms.append(None)
    print(render_series(
        "weak scaling (s per iteration; N = 30k x sqrt(nodes), ne = 3000)",
        "nodes", args.nodes,
        {"ChASE(NCCL)": nccl, "ChASE(STD)": std, "ChASE(LMS)": lms},
    ))
    return 0


def _cmd_strong(args: argparse.Namespace) -> int:
    from repro.baselines import ElpaModel, ElpaVariant

    N, nev, nex = 115_459, 1200, 400
    ne = nev + nex
    trace = ConvergenceTrace.fixed(7, ne, deg=22)
    rows = {}
    for label, backend, scheme in (
        ("ChASE(NCCL)", CommBackend.NCCL, "new"),
        ("ChASE(STD)", CommBackend.MPI_STAGED, "new"),
        ("ChASE(LMS)", CommBackend.MPI_STAGED, "lms"),
    ):
        series = []
        for nodes in args.nodes:
            rpn, gpr = (1, 4) if scheme == "lms" else (4, 1)
            cluster = VirtualCluster(
                nodes * rpn, backend=backend, ranks_per_node=rpn,
                gpus_per_rank=gpr, phantom=True,
            )
            grid = Grid2D(cluster)
            Hd = DistributedHermitian.phantom(grid, N, np.complex128)
            solver = ChaseSolver(
                grid, Hd, ChaseConfig(nev=nev, nex=nex), scheme=scheme
            )
            series.append(
                solver.solve_phantom(
                    trace, bounds=SpectralBounds(3.0, -1.0, 1.0),
                    include_lanczos=True,
                ).makespan
            )
        rows[label] = series
    e2 = ElpaModel(ElpaVariant.ELPA2)
    rows["ELPA2-GPU"] = [e2.time_to_solution(N, nev, n) for n in args.nodes]
    print(render_series(
        "strong scaling, In2O3 115k, nev=1200 (time-to-solution, s)",
        "nodes", args.nodes, rows,
    ))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Model-driven configuration search (DESIGN.md §5e)."""
    from repro.perfmodel.autotune import autotune

    nex = args.nex if args.nex is not None else max(2, args.nev // 2)
    report = autotune(
        args.ranks, args.n, args.nev, nex,
        backend=split_backend(args.backend)[0],
        iterations=args.iterations,
    )
    if args.smoke:
        ok = report.best.makespan <= report.default.makespan
        print(f"tune smoke: best {report.best.config.label()} "
              f"{report.best.makespan * 1e3:.3f} ms vs default "
              f"{report.default.makespan * 1e3:.3f} ms "
              f"(x{report.speedup:.3f}) -> {'OK' if ok else 'REGRESSION'}")
        return 0 if ok else 1
    rows = []
    shown = report.results[: args.top] if args.top else report.results
    for i, r in enumerate(shown, 1):
        rows.append([
            i, r.config.label(),
            f"{r.makespan * 1e3:.3f}" if r.feasible else "OOM",
            f"{r.filter_time * 1e3:.3f}",
            f"{r.qr_time * 1e3:.3f}",
            f"{r.comm_time * 1e3:.3f}",
            "default" if r.is_default else "",
        ])
    print(render_table(
        ["#", "config", "makespan (ms)", "filter", "QR", "comm", ""],
        rows,
        title=(
            f"autotune: {args.ranks} ranks, N={args.n}, "
            f"ne={args.nev + nex}, backend={args.backend} "
            f"({len(report.results)} candidates, modeled dry runs)"
        ),
    ))
    print(f"winner: {report.best.config.label()} — modeled "
          f"x{report.speedup:.3f} vs the untuned default")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Eigensolver-as-a-service: run a jobs file through EigenService
    (DESIGN.md §5i) and print the per-job scheduling/warm-start story."""
    from repro.service import EigenService, SolveJob, load_jobs, scf_sequence

    if args.smoke:
        # 3 jobs on 2 shards: a two-step sequence (one warm-start hit)
        # plus an unrelated higher-priority tenant
        hams = scf_sequence(180, 2, seed=args.seed)
        jobs = [
            (SolveJob(H=hams[0], nev=24, nex=12, sequence_id="smoke-scf",
                      step=0, seed=args.seed, tenant="alice"), 0.0),
            (SolveJob(H=hams[1], nev=24, nex=12, sequence_id="smoke-scf",
                      step=1, seed=args.seed + 1, tenant="alice"), 0.0),
            (SolveJob(H=hams[0], nev=16, nex=8, tenant="bob",
                      priority=1, seed=args.seed + 2), 0.0),
        ]
    elif args.jobs:
        jobs = load_jobs(args.jobs)
    else:
        print("serve needs --jobs FILE or --smoke", file=sys.stderr)
        return 2

    comm_backend, transport = split_backend(args.backend)
    svc = EigenService(
        total_ranks=args.ranks, n_shards=args.shards,
        backend=comm_backend, transport=transport,
        quota=args.quota, max_queue=args.max_queue,
        warmstart=not args.no_warmstart, tune=args.tune,
        refresh_extras=args.refresh_extras,
    )
    svc.submit_many(jobs)
    results = svc.run()

    rows = []
    for r in results:
        rows.append([
            r.job_id, r.tenant, r.state.value,
            "-" if r.shard is None else r.shard,
            "-" if r.queue_wait is None else f"{r.queue_wait * 1e3:.2f}",
            f"{r.makespan * 1e3:.2f}" if r.makespan else "-",
            r.warmstart, r.iterations, r.iterations_saved,
            "yes" if r.converged else ("-" if r.chase is None else "NO"),
        ])
    print(render_table(
        ["job", "tenant", "state", "shard", "wait (ms)", "solve (ms)",
         "warm", "iters", "saved", "conv"],
        rows,
        title=(
            f"eigenservice: {len(results)} jobs on {args.shards} shards "
            f"x {args.ranks // args.shards} ranks, backend={args.backend}, "
            f"tune={args.tune}"
        ),
    ))
    done = [r for r in results if r.state.value == "done"]
    horizon = max((r.finish_time or 0.0) for r in results) if results else 0.0
    if horizon > 0:
        print(f"throughput: {len(done)} solved in {horizon:.4f} modeled s "
              f"({len(done) / horizon * 3600:.0f} jobs/hour)")
    if svc.cache is not None:
        print(f"warm-start cache: {svc.cache.hits} hits / "
              f"{svc.cache.misses} misses, {svc.cache.nbytes} B held")
    print(f"host BLAS pools: {blas.describe_line()}")
    if args.smoke:
        hits = sum(1 for r in results if r.warm_hit)
        ok = (len(done) == len(results) and hits >= 1
              and all(r.converged for r in done))
        print(f"serve smoke: {len(done)}/{len(results)} done, "
              f"{hits} warm hit(s) -> {'OK' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0 if all(r.state.value == "done" and r.converged
                    for r in results) else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Condensed end-to-end reproduction: one representative check per
    experiment, written as a plain-text report."""
    import io as _io
    from contextlib import redirect_stdout

    sections: list[str] = []

    def section(title, fn):
        buf = _io.StringIO()
        with redirect_stdout(buf):
            fn()
        sections.append(f"== {title} ==\n{buf.getvalue().rstrip()}")
        print(f"[done] {title}")

    def table1():
        ns = argparse.Namespace(scale=args.scale, seed=11)
        _cmd_suite(ns)

    def table2():
        H, prob = build_problem("In2O3-115k", N_target=args.scale)
        rows = []
        for qr_mode in ("hhqr", "auto"):
            cluster = VirtualCluster(4, backend=CommBackend.NCCL)
            grid = Grid2D(cluster)
            Hd = DistributedHermitian.from_dense(grid, H)
            res = ChaseSolver(
                grid, Hd, ChaseConfig(nev=prob.nev, nex=prob.nex),
                qr_mode=qr_mode,
            ).solve(rng=np.random.default_rng(17))
            rows.append([qr_mode, res.matvecs, res.iterations,
                         round(res.timings["QR"].total * 1e3, 2)])
        print(render_table(
            ["QR", "MatVecs", "Iters", "QR model (ms)"], rows,
            title=(
                f"Table 2 sample ({prob.name} scaled to N={prob.N}; "
                "identical MatVecs/Iters is the paper's key claim — "
                "full-size QR timings: pytest benchmarks/bench_table2_qr.py)"
            ),
        ))
        assert rows[0][1] == rows[1][1], "MatVecs must match across QR"

    def fig3a():
        ns = argparse.Namespace(nodes=[1, 4, 16, 64])
        _cmd_weak(ns)

    def fig3b():
        ns = argparse.Namespace(nodes=[4, 36, 144])
        _cmd_strong(ns)

    section("Table 1 — test suite", table1)
    section("Table 2 — HHQR vs CholeskyQR", table2)
    section("Figure 3a — weak scaling", fig3a)
    section("Figure 3b — strong scaling", fig3b)

    report = "\n\n".join(sections) + "\n"
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(report)
        print(f"report written to {args.output}")
    else:
        print("\n" + report)
    return 0


def _campaign_smoke(args) -> int:
    """The CI gate: run the built-in smoke campaign, interrupt it
    mid-run, resume from the sqlite DB, and require the end state (DB
    dump, text table, JSON section) byte-identical to an uninterrupted
    run — with the resumed pass provably skipping the DONE rows."""
    import json as _json
    import tempfile
    from pathlib import Path

    from repro.campaign import (
        CampaignDB,
        CampaignInterrupted,
        CampaignRunner,
        campaign_section,
        campaign_table,
        missed_gates,
        smoke_spec,
    )

    spec = smoke_spec()
    total = len(spec.expand())
    kill_after = 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        interrupted = CampaignDB(tmp / "interrupted.sqlite")
        try:
            CampaignRunner(
                spec, interrupted, interrupt_after=kill_after,
                interrupt_mid_run=True,
            ).run()
            print("smoke: FAIL — interrupt never fired")
            return 1
        except CampaignInterrupted as exc:
            print(f"smoke: {exc}")
        resumed = CampaignRunner(spec, interrupted).run()
        print(
            f"smoke: resumed — executed {resumed.executed}, "
            f"skipped {resumed.resumed_skips} DONE row(s), "
            f"recovered {resumed.recovered} stale RUNNING row(s)"
        )
        reference = CampaignDB(tmp / "reference.sqlite")
        fresh = CampaignRunner(spec, reference).run()

        failures = []
        if resumed.executed != total - kill_after:
            failures.append(
                f"resume executed {resumed.executed} runs, expected "
                f"{total - kill_after} (DONE rows must be skipped)"
            )
        if resumed.resumed_skips != kill_after:
            failures.append(
                f"resume skipped {resumed.resumed_skips} DONE rows, "
                f"expected {kill_after}"
            )
        if interrupted.dump() != reference.dump():
            failures.append("resumed DB dump differs from uninterrupted")
        table = campaign_table(interrupted, spec.name)
        if table != campaign_table(reference, spec.name):
            failures.append("resumed report table differs")
        section = campaign_section(interrupted, spec.name)
        if section != campaign_section(reference, spec.name):
            failures.append("resumed JSON section differs")
        missed = missed_gates(section)
        if missed:
            failures.append(f"smoke gates missed: {missed}")
        if resumed.failed or fresh.failed:
            failures.append("smoke campaign had FAILED runs")
        print(table)
        print(_json.dumps(
            {k: v for k, v in section.items()
             if k.startswith("target_met_")},
            indent=2, sort_keys=True,
        ))
        for f in failures:
            print(f"smoke: FAIL — {f}")
        print(f"campaign smoke: {'FAIL' if failures else 'OK'} "
              f"({total} runs, interrupted after {kill_after}, resumed)")
        return 1 if failures else 0


def _cmd_campaign(args) -> int:
    from pathlib import Path

    from repro.campaign import (
        CampaignDB,
        CampaignInterrupted,
        CampaignRunner,
        SpecError,
        campaign_section,
        campaign_table,
        load_spec,
        missed_gates,
        write_report,
    )

    if args.smoke:
        return _campaign_smoke(args)
    if not args.spec:
        print("campaign: --spec is required (or --smoke)")
        return 2
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(f"campaign: bad spec — {exc}")
        return 2
    db_path = Path(args.db) if args.db else \
        Path(args.spec).with_suffix(".sqlite")

    if args.action == "run":
        with CampaignDB(db_path) as db:
            runner = CampaignRunner(
                spec, db, interrupt_after=args.interrupt_after)
            try:
                stats = runner.run(only=args.only)
            except CampaignInterrupted as exc:
                print(f"campaign {spec.name!r}: {exc} — resume with the "
                      f"same command (db: {db_path})")
                return 3
        print(
            f"campaign {spec.name!r}: {stats.executed} executed, "
            f"{stats.resumed_skips} skipped as DONE, "
            f"{stats.failed} failed, {stats.recovered} recovered "
            f"(db: {db_path})"
        )
        return 1 if stats.failed else 0
    # status and report read a DB; only run creates one
    if not db_path.is_file():
        print(f"campaign {spec.name!r}: no run database at {db_path}")
        return 2
    db = CampaignDB(db_path)
    if not db.rows(spec.name):
        print(f"campaign {spec.name!r}: no runs in {db_path}")
        return 2
    if args.action == "status":
        counts = db.counts(spec.name)
        print(f"campaign {spec.name!r} ({db_path}):")
        for state, n in sorted(counts.items()):
            print(f"  {state:>8}: {n}")
        print(campaign_table(db, spec.name))
        return 0
    # report: regenerate artifacts from DB queries alone
    txt, js = write_report(
        db, spec.name,
        results_dir=args.results_dir, json_path=args.json,
    )
    print(campaign_table(db, spec.name))
    print(f"report written to {txt} and merged into {js}")
    missed = missed_gates(campaign_section(db, spec.name))
    if missed:
        print(f"campaign {spec.name!r}: gate(s) not met: "
              f"{', '.join(missed)}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="SC'23 ChASE reproduction — solver and experiment CLI",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one eigenproblem")
    s.add_argument("--n", type=int, default=600, help="matrix size")
    s.add_argument("--nev", type=int, default=30)
    s.add_argument("--nex", type=int, default=None)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--problem", choices=sorted(TABLE1), default=None,
                   help="use a (scaled) Table 1 problem instead of Uniform")
    s.add_argument("--distributed", action="store_true",
                   help="run on the simulated cluster")
    s.add_argument("--ranks", type=_RANKS, default=4)
    s.add_argument("--backend", choices=BACKEND_TOKENS, default="nccl",
                   help="communication model (nccl/mpi/mpi-host) or "
                        "execution transport (orchestrated/mp; models "
                        "NCCL, mp runs the data plane on one process "
                        "per rank — DESIGN.md §5h)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--coll-algo", choices=_COLL_ALGOS, default=None,
                   help="collective algorithm (default: ring — the seed "
                        "behavior)")
    s.add_argument("--topology", choices=("auto",), default=None,
                   help="attach a fat-tree interconnect for hop-aware "
                        "collective costing (DESIGN.md §5e)")
    s.add_argument("--filter-dtype", choices=PRECISION_MODES,
                   default=None, dest="filter_dtype",
                   help="Chebyshev filter working precision (DESIGN.md "
                        "§5g); fp32 is admitted per iteration by the "
                        "condition-estimate gate (default: fp64)")
    s.add_argument("--qr-dtype", choices=PRECISION_MODES,
                   default=None, dest="qr_dtype",
                   help="mixed CholeskyQR2 first-pass precision "
                        "(DESIGN.md §5g); admitted per call by the "
                        "doubling bound on the condition estimate "
                        "(default: fp64)")
    s.add_argument("--tuned", action="store_true",
                   help="run the model-driven autotuner first and solve "
                        "under the winning configuration (implies a "
                        "fat-tree topology; see 'repro tune')")
    s.add_argument("--faults", type=int, default=None, metavar="SEED",
                   help="arm a seeded random fault plan on the simulated "
                        "cluster (requires --distributed; DESIGN.md §5f)")
    s.add_argument("--fault-events", default=4,
                   type=_bounded(int, lambda v: v >= 0, "must be >= 0"),
                   help="events in the random fault plan (default 4)")
    s.add_argument("--fault-horizon", default=0.01,
                   type=_bounded(float, lambda v: v > 0, "must be > 0"),
                   help="model-time horizon in seconds over which "
                        "comm-level fault events are scheduled")
    s.add_argument("--checkpoint", type=int, default=None, metavar="K",
                   help="checkpoint every K iterations (default: every "
                        "iteration whenever faults are armed)")
    s.set_defaults(func=_cmd_solve)

    s = sub.add_parser("suite", help="run the Table 1 suite")
    s.add_argument("--scale", type=int, default=260)
    s.add_argument("--seed", type=int, default=11)
    s.set_defaults(func=_cmd_suite)

    s = sub.add_parser("weak", help="Fig. 3a weak-scaling points")
    s.add_argument("--nodes", type=int, nargs="+", default=[1, 4, 16, 64])
    s.set_defaults(func=_cmd_weak)

    s = sub.add_parser("strong", help="Fig. 3b strong-scaling points")
    s.add_argument("--nodes", type=int, nargs="+", default=[4, 36, 144])
    s.set_defaults(func=_cmd_strong)

    s = sub.add_parser(
        "tune",
        help="rank simulated configurations by modeled makespan "
             "(grid shape x collective algo x fusion)",
    )
    s.add_argument("--ranks", type=_RANKS, default=8)
    s.add_argument("--n", type=int, default=800, help="matrix size")
    s.add_argument("--nev", type=int, default=96)
    s.add_argument("--nex", type=int, default=32)
    s.add_argument("--backend", choices=BACKEND_TOKENS, default="nccl")
    s.add_argument("--iterations", type=int, default=2,
                   help="subspace iterations in the modeled dry run")
    s.add_argument("--top", type=int, default=12,
                   help="rows of the ranked table to print (0 = all)")
    s.add_argument("--smoke", action="store_true",
                   help="one-line check that the winner's modeled makespan "
                        "is <= the untuned default's; exit 1 otherwise")
    s.set_defaults(func=_cmd_tune)

    s = sub.add_parser(
        "serve",
        help="eigensolver-as-a-service: schedule a jobs file onto "
             "cluster shards with autotuning and sequence warm-starts "
             "(DESIGN.md §5i)",
    )
    s.add_argument("--jobs", default=None, metavar="FILE",
                   help="jobs file (JSON; YAML when PyYAML is available) "
                        "— see docs/usage.md for the schema")
    s.add_argument("--ranks", type=_RANKS, default=8,
                   help="total simulated ranks across all shards")
    s.add_argument("--shards", type=int, default=2,
                   help="disjoint cluster partitions (one job each)")
    s.add_argument("--backend", choices=BACKEND_TOKENS, default="nccl")
    s.add_argument("--tune", choices=("off", "fast", "full"), default="fast",
                   help="model-driven per-job config selection")
    s.add_argument("--quota", type=int, default=None,
                   help="per-tenant in-flight job quota")
    s.add_argument("--max-queue", type=int, default=64,
                   help="bounded admission queue size")
    s.add_argument("--no-warmstart", action="store_true",
                   help="disable the sequence warm-start cache")
    s.add_argument("--refresh-extras", action="store_true",
                   help="re-randomize the nex buffer columns on warm "
                        "starts (default: reuse the cached subspace "
                        "exactly)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--smoke", action="store_true",
                   help="self-contained check: 3 jobs on 2 shards with "
                        "one warm-start hit; exit 1 on any failure")
    s.set_defaults(func=_cmd_serve)

    s = sub.add_parser(
        "reproduce",
        help="condensed end-to-end reproduction report "
             "(full benches: pytest benchmarks/ --benchmark-only)",
    )
    s.add_argument("--scale", type=int, default=240)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=_cmd_reproduce)

    s = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns with a resumable run "
             "database (DESIGN.md §5k)",
    )
    s.add_argument("action", choices=("run", "status", "report"),
                   help="run (or resume) the campaign, show DB state, "
                        "or regenerate reports from DB queries alone")
    s.add_argument("--spec", default=None,
                   help="campaign spec (YAML or JSON), e.g. "
                        "campaigns/mixed_precision.yml")
    s.add_argument("--db", default=None,
                   help="sqlite run database "
                        "(default: <spec>.sqlite next to the spec)")
    s.add_argument("--only", default=None,
                   help="restrict to runs whose label contains this "
                        "substring")
    s.add_argument("--interrupt-after", type=int, default=None,
                   help="kill the campaign after this many executed "
                        "runs (resume testing)")
    s.add_argument("--results-dir", default="benchmarks/results",
                   help="where 'report' writes campaign_<name>.txt")
    s.add_argument("--json", default="BENCH_wallclock.json",
                   help="JSON file 'report' merges its section into")
    s.add_argument("--smoke", action="store_true",
                   help="CI gate: built-in smoke campaign, "
                        "interrupted mid-run and resumed; exits "
                        "nonzero unless the resumed end state is "
                        "byte-identical to an uninterrupted run")
    s.set_defaults(func=_cmd_campaign)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
