"""Command line of the repo benchmark.

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload NAME      # one, in this process
    python3 benchmarks/e2e/run.py --traced             # per-layer run
    python3 benchmarks/e2e/run.py --smoke              # quarter size, <= 20 s
    python3 benchmarks/e2e/run.py --compare A.json B.json

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same program.)

Without ``--workload`` the workloads run one after another, each in a
fresh child process, so ``peak_rss_mib`` is per workload and no module
global of one survives into the next.  A child drops every ``REPRO_*``
variable from its environment before ``repro`` is imported and leaves
the BLAS thread count at the library default, capped at the cores it may
run on.  The last line a child prints is the one-object JSON summary
``BENCHMARK.json``'s driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
REPORT_TAG = "#report "
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bootstrap_path() -> None:
    """Make ``benchmarks.e2e`` and ``repro`` importable when run as a file."""
    here = str(HERE)
    sys.path[:] = [p for p in sys.path if p != here]
    for p in (str(ROOT / "src"), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def scrub_environment(environ) -> dict:
    """Drop ``REPRO_*`` knobs and cap BLAS threads; returns what was done.

    Must run before numpy is imported: the BLAS pool is sized at load.
    """
    scrubbed = sorted(k for k in environ if k.startswith("REPRO_"))
    for k in scrubbed:
        del environ[k]
    nproc = _nproc()
    threads = "library default"
    for var in _THREAD_VARS:
        raw = environ.get(var, "").strip()
        if raw.isdigit():
            if int(raw) > nproc:
                environ[var] = str(nproc)
            threads = f"{var}={environ[var]}"
    return {"scrubbed_env": scrubbed, "nproc": nproc, "blas_threads": threads}


def host_block(env_info: dict, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        **env_info,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_revision": rev,
        "seed": seed,
    }


def default_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


# ------------------------------------------------------------ child processes
def stop_children(grace: float = 5.0) -> None:
    """Stop every process this one started, and wait until each has ended.

    The ``mp`` transport retires its workers in ``close()``; what is left
    is ``multiprocessing``'s resource tracker, started with the first
    shared-memory segment.  Left alone it ends only once it sees this
    process gone, that is *after* the benchmark has exited, so it is
    stopped and waited for here.  A worker still alive (a path out of the
    measurement that skipped ``close()``) is terminated first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()     # closes its pipe, on which it ends, and waits


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)   # unwind, so that the `finally`s run


# --------------------------------------------------------------- one workload
def run_one(args, env_info: dict) -> int:
    """Measure ``args.workload`` in this process (the child / driver mode)."""
    from benchmarks.e2e import metrics, workloads
    from benchmarks.e2e.measure import Measurement

    try:
        workload = workloads.by_name(args.workload)
    except KeyError:
        print(f"unknown workload {args.workload!r}; have "
              f"{[w.name for w in workloads.WORKLOADS]}", file=sys.stderr)
        return 2
    if args.smoke:
        workload = workload.scaled(4)
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else default_seconds())
    report = Measurement(
        workload, seed=args.seed, seconds=seconds, trace=args.trace,
        min_reps=1 if args.smoke else 3, keep_spans=bool(args.spans),
    ).run()
    report["smoke"] = args.smoke
    report["host"] = host_block(env_info, args.seed)
    spans = report.pop("spans", None)
    if args.spans and spans is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    print_report(report)
    if args.out:
        write_reports(args.out, {workload.name: report})
    if args.emit_report:
        print(REPORT_TAG + json.dumps(report))
    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    block = report["per_layer"] if args.trace else report["end_to_end"]
    ok = report["failed"] == 0 and not report["self_check"]
    print(json.dumps({
        "correct": ok,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": block[name]["value"],
                           "unit": block[name]["unit"]}
                    for name, *_ in names},
    }))
    return 0 if ok else 1


def print_report(report: dict) -> None:
    """Every metric by name, with its unit."""
    name = report["workload"]
    print(f"== {name} (seed {report['seed']}, "
          f"{report['repetitions']} repetitions"
          f"{', traced' if report['trace'] else ''}"
          f"{', smoke' if report.get('smoke') else ''}) ==")
    for block in ("end_to_end", "report_only"):
        for metric, e in report[block].items():
            spread = (f"  q1 {e['q1']:.6g}  q3 {e['q3']:.6g}  n={e['n']}"
                      if "q1" in e else "")
            print(f"  {metric:<22}{e['value']:>14.6g} {e['unit']:<8}{spread}")
    for metric, e in report.get("per_layer", {}).items():
        print(f"  {metric:<40}{e['value']:>16.6g} {e['unit']}")
    if "shares" in report:
        s = report["shares"]
        print(f"  share of solve span: filter {s['filter_of_solve']:.1%}, "
              f"qr+rr+resid {s['qr_rr_resid_of_solve']:.1%}")
    print(f"  operations: {report['attempted']} attempted, "
          f"{report['failed']} failed")
    h = report["host"]
    print(f"  host: nproc={h['nproc']} blas={h['blas_vendor']} "
          f"threads={h['blas_threads']} numpy={h['numpy']} "
          f"scipy={h['scipy']} git={h['git_revision'][:12]} "
          f"scrubbed={h['scrubbed_env']}")
    for f in report["failures"]:
        print(f"  FAILED repetition {f['repetition']} {f['operation']}: "
              f"{'; '.join(f['why'])}")
    for problem in report["self_check"]:
        print(f"  SELF-CHECK: {problem}")


def write_reports(path: str, reports: dict) -> None:
    """The ``--out`` file: one host block, one report per workload."""
    host = next((r["host"] for r in reports.values()), {})
    body = {name: {k: v for k, v in r.items() if k != "host"}
            for name, r in reports.items()}
    pathlib.Path(path).write_text(
        json.dumps({"host": host, "workloads": body}, indent=1) + "\n")


# -------------------------------------------------------------- all workloads
def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    reports, status = {}, 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(int(args.trace)),
               "--emit-report"]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            # ask, so that the child stops its own workers; then wait
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
        for line in stdout.splitlines():
            if line.startswith(REPORT_TAG):
                reports[name] = json.loads(line[len(REPORT_TAG):])
            elif not line.startswith("{"):
                print(line)
        report = reports.get(name)
        if proc.returncode or report is None or report["failed"]:
            status = 1
            print(f"  {name}: exit code {proc.returncode}"
                  f"{'' if report else ', no report'}", file=sys.stderr)
    if args.out:
        write_reports(args.out, reports)
    total = sum(r["measured_s"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(f"{len(reports)}/{len(names)} workloads, {failed} operations "
          f"failed, {total:.1f} s measured")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run this workload only, in process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure this long per workload "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: bind the span wrappers and report per layer")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="quarter size, one repetition, all checks on")
    ap.add_argument("--out", help="write the report to this JSON file")
    ap.add_argument("--spans", help="write the last traced repetition's "
                                    "spans here (JSON lines; needs --workload)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two reports written by --out")
    ap.add_argument("--emit-report", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.trace = bool(args.trace or args.traced)

    _bootstrap_path()
    if args.compare:
        from benchmarks.e2e.compare import compare_files

        return compare_files(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    in_main_thread = threading.current_thread() is threading.main_thread()
    previous = (signal.signal(signal.SIGTERM, _on_sigterm)
                if in_main_thread else None)
    try:
        if args.workload:
            return run_one(args, scrub_environment(os.environ))
        return run_all(args)
    finally:
        stop_children()
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
