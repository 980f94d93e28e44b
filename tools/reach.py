#!/usr/bin/env python3
"""Reach gate: every function of ``src/repro`` is called by a root, or
stays on ``tools/reach_allow.txt`` with the reason it stays.

A *root* is a program the project promises works: the benchmark
workloads, the paper benches and the harness self-tests, the CLI
invocations of ``docs/usage.md`` and CI, and the examples.  Each root
runs in its own process under a ``sitecustomize`` hook that profiles it
with cProfile and, at exit, writes the ``src/repro`` functions it
entered.  An AST pass lists every function of ``src/repro``; the gate
fails on a listed function that no root reached and that is neither
exempt by rule nor allowlisted, and on an allowlist line that names a
function now reached, exempt or gone.

Exempt by rule: dunders other than ``__init__``, bodies that only
``raise NotImplementedError``, and ``runtime/_mp_worker.py`` (it runs
in child processes launched by path).

Run from anywhere (the roots take about 100 s on 2 vCPU)::

    python tools/reach.py                 # scratch files in a temp dir
    python tools/reach.py --tmp DIR       # campaign DBs and outputs in DIR

An allowlist line is ``<path under src/repro>::<qualname>  <reason>``
with exactly one reason from ``REASONS``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allow.txt"

# the open ROADMAP direction that deletes the function or gives it a
# root, or why it stays without one
REASONS = ("3(b)", "3(c)", "10", "13", "error path", "test oracle",
           "test fake", "documented")
EXEMPT_PATHS = ("runtime/_mp_worker.py",)
ROOT_TIMEOUT_S = 600  # the slowest root, the paper benches, takes ~40 s

# (label, argv after the interpreter, accepted exit codes); ``{tmp}`` is
# the scratch directory, ``{jobs}`` the jobs file of docs/usage.md
_SOLVE = ("-m", "repro", "solve")
_CAMPAIGN = ("-m", "repro", "campaign")
ROOTS: tuple[tuple[str, tuple[str, ...], tuple[int, ...]], ...] = (
    # the five benchmark workloads, each in a fresh child
    ("workloads", ("benchmarks/e2e/run.py", "--smoke",
                   "--out", "{tmp}/e2e.json"), (0,)),
    ("workloads traced", ("benchmarks/e2e/run.py", "--smoke", "--traced",
                          "--out", "{tmp}/e2e_traced.json"), (0,)),
    # the paper benches and the harness self-tests; pytest-benchmark's
    # timer would take the profiler hook over, so it is disabled
    ("benches", ("-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "benchmarks/", "--benchmark-disable"), (0,)),
    # docs/usage.md and CI
    ("solve mp", _SOLVE + ("--n", "400", "--nev", "20", "--distributed",
                           "--ranks", "4", "--backend", "mp"), (0,)),
    ("solve mp ci", _SOLVE + ("--n", "200", "--nev", "10", "--distributed",
                              "--ranks", "3", "--backend", "mp"), (0,)),
    ("tune", ("-m", "repro", "tune", "--ranks", "8", "--n", "800",
              "--nev", "96", "--nex", "32"), (0,)),
    ("tune smoke", ("-m", "repro", "tune", "--smoke"), (0,)),
    ("solve tuned", _SOLVE + ("--n", "400", "--nev", "20", "--distributed",
                              "--ranks", "8", "--tuned"), (0,)),
    ("solve fp32 filter", _SOLVE + ("--n", "200", "--nev", "8",
                                    "--distributed", "--ranks", "8",
                                    "--filter-dtype", "fp32"), (0,)),
    ("solve fp32 qr", _SOLVE + ("--n", "800", "--nev", "96", "--distributed",
                                "--ranks", "8", "--qr-dtype", "fp32"), (0,)),
    ("solve faults horizon", _SOLVE + ("--n", "300", "--nev", "20",
                                       "--distributed", "--faults", "42",
                                       "--fault-horizon", "0.02"), (0,)),
    ("solve faults events", _SOLVE + ("--n", "300", "--nev", "20",
                                      "--distributed", "--faults", "42",
                                      "--fault-events", "6"), (0,)),
    ("solve checkpoint", _SOLVE + ("--n", "300", "--nev", "20",
                                   "--distributed", "--checkpoint", "2"),
     (0,)),
    # a shed deadline exits 1 by design
    ("serve jobs", ("-m", "repro", "serve", "--jobs", "{jobs}", "--ranks",
                    "8", "--shards", "2", "--tune", "fast"), (0, 1)),
    ("serve smoke", ("-m", "repro", "serve", "--smoke"), (0,)),
    ("serve smoke mp", ("-m", "repro", "serve", "--smoke",
                        "--backend", "mp"), (0,)),
    ("campaign smoke", _CAMPAIGN + ("run", "--smoke"), (0,)),
    *(
        (f"campaign {action} {spec}",
         _CAMPAIGN + (action, "--spec", f"campaigns/{spec}.yml",
                      "--db", f"{{tmp}}/{spec}.sqlite", *extra), (0,))
        for spec in ("wallclock", "mixed_precision")
        for action, extra in (
            ("run", ()),
            ("status", ()),
            ("report", ("--results-dir", f"{{tmp}}/report_{spec}",
                        "--json", f"{{tmp}}/report_{spec}/b.json")),
        )
    ),
    ("reproduce", ("-m", "repro", "reproduce", "-o", "{tmp}/report.txt"),
     (0,)),
)


# ------------------------------------------------------------ the function list
@dataclass(frozen=True)
class Function:
    """One ``def`` in the package: where it is and how it is keyed."""

    path: str          # relative to the package directory
    qualname: str
    name: str
    first_line: int    # the code object's co_firstlineno
    body_lines: int
    exempt: str | None

    @property
    def ident(self) -> str:
        return f"{self.path}::{self.qualname}"


def _only_raises_not_implemented(node) -> bool:
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def list_functions(package: Path) -> list[Function]:
    """Every function and method under ``package``, nested ones included."""
    out: list[Function] = []
    for file in sorted(package.rglob("*.py")):
        rel = file.relative_to(package).as_posix()
        tree = ast.parse(file.read_text(), filename=str(file))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    name = child.name
                    exempt = None
                    if rel in EXEMPT_PATHS:
                        exempt = "child process"
                    elif (name.startswith("__") and name.endswith("__")
                          and name != "__init__"):
                        exempt = "dunder"
                    elif _only_raises_not_implemented(child):
                        exempt = "NotImplementedError stub"
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    out.append(Function(rel, prefix + name, name, first,
                                        child.end_lineno - child.lineno,
                                        exempt))
                    visit(child, f"{prefix}{name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


# ------------------------------------------------------------- the allowlist
def parse_allowlist(lines) -> tuple[dict[str, str], list[str]]:
    """``{ident: reason}`` and the problems of malformed lines."""
    allowed: dict[str, str] = {}
    problems: list[str] = []
    for n, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ident, _, reason = line.partition(" ")
        reason = reason.strip()
        if "::" not in ident:
            problems.append(f"allowlist line {n}: no '<path>::<qualname>'")
        elif reason not in REASONS:
            problems.append(f"allowlist line {n}: reason {reason!r} is not "
                            f"one of {', '.join(REASONS)}")
        elif ident in allowed:
            problems.append(f"allowlist line {n}: {ident} listed twice")
        else:
            allowed[ident] = reason
    return allowed, problems


# ------------------------------------------------------------------ the check
@dataclass
class Report:
    functions: list[Function]
    unreached: list[Function]       # not exempt, never entered
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def check(functions: list[Function], reached: set[tuple[str, int, str]],
          allow_lines) -> Report:
    """``reached`` holds (path under the package, co_firstlineno, co_name)."""
    allowed, problems = parse_allowlist(allow_lines)
    unreached = [f for f in functions if f.exempt is None
                 and (f.path, f.first_line, f.name) not in reached]
    unreached_ids = {f.ident for f in unreached}
    for f in unreached:
        if f.ident not in allowed:
            problems.append(f"unreached, not allowlisted: {f.ident} "
                            f"(line {f.first_line}, {f.body_lines} lines)")
    known = {f.ident: f for f in functions}
    for ident in allowed:
        if ident not in known:
            problems.append(f"stale allowlist line: {ident} is gone")
        elif known[ident].exempt is not None:
            problems.append(f"stale allowlist line: {ident} is exempt "
                            f"({known[ident].exempt})")
        elif ident not in unreached_ids:
            problems.append(f"stale allowlist line: {ident} is reached")
    return Report(functions, unreached, problems)


# ---------------------------------------------------------- profiling a root
HOOK = '''\
import atexit, cProfile, json, os, time

_profile = cProfile.Profile()


def _dump(package={package!r}, out={out!r}):
    _profile.disable()
    real, seen = {{}}, set()
    for entry in _profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        path = real.get(code.co_filename)
        if path is None:
            path = real[code.co_filename] = os.path.realpath(code.co_filename)
        if path.startswith(package):
            seen.add((path[len(package):], code.co_firstlineno, code.co_name))
    name = f"{{os.getpid()}}-{{time.monotonic_ns()}}.json"
    with open(os.path.join(out, name), "w") as f:
        json.dump(sorted(seen), f)


atexit.register(_dump)
_profile.enable()
'''


def write_hook(directory: Path, package: Path, out: Path) -> None:
    """A ``sitecustomize.py`` in ``directory`` that records into ``out``."""
    (directory / "sitecustomize.py").write_text(HOOK.format(
        package=str(package.resolve()) + os.sep, out=str(out)))


def read_reached(out: Path) -> set[tuple[str, int, str]]:
    reached = set()
    for file in out.glob("*.json"):
        reached.update((p, line, name)
                       for p, line, name in json.loads(file.read_text()))
    return reached


def documented_jobs() -> str:
    """The JSON jobs file of docs/usage.md (its ``{"jobs": ...}`` block)."""
    text = (REPO / "docs" / "usage.md").read_text()
    for block in text.split("```json\n")[1:]:
        body = block.split("```", 1)[0]
        if '"jobs"' in body:
            return body
    raise SystemExit("docs/usage.md has no jobs file")


def run_roots(tmp: Path) -> set[tuple[str, int, str]]:
    hook_dir, out = tmp / "hook", tmp / "reached"
    hook_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(out, ignore_errors=True)  # an earlier run's profiles
    out.mkdir()
    write_hook(hook_dir, PACKAGE, out)
    jobs = tmp / "jobs.json"
    jobs.write_text(documented_jobs())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(REPO / "src"), str(REPO)])
    # the examples run from a copy: one writes its output next to itself
    examples = tmp / "examples"
    shutil.copytree(REPO / "examples", examples, dirs_exist_ok=True)
    roots = list(ROOTS) + [(f"example {p.name}", (str(p),), (0,))
                           for p in sorted(examples.glob("*.py"))]
    failed = []
    for label, argv, codes in roots:
        cmd = [sys.executable] + [a.format(tmp=tmp, jobs=jobs) for a in argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True,
                                  text=True, timeout=ROOT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failed.append(f"{label} (timed out)")
            continue
        dt = time.perf_counter() - t0
        print(f"  {dt:6.1f} s  {label}  (exit {proc.returncode})", flush=True)
        if proc.returncode not in codes:
            failed.append(label)
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    if failed:
        raise SystemExit(f"roots failed: {', '.join(failed)}")
    return read_reached(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tmp", default=None,
                    help="directory for campaign DBs, outputs and the "
                         "profiles (default: a fresh temp dir)")
    args = ap.parse_args(argv)
    if args.tmp is None:
        tmp = Path(tempfile.mkdtemp(prefix="reach-"))
    else:
        tmp = Path(args.tmp).resolve()
        tmp.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    reached = run_roots(tmp)
    report = check(list_functions(PACKAGE), reached,
                   ALLOWLIST.read_text().splitlines())
    listed = [f for f in report.functions if f.exempt is None]
    print(f"{len(listed)} functions ({sum(f.body_lines for f in listed)} "
          f"body lines) listed, {len(report.unreached)} unreached "
          f"({sum(f.body_lines for f in report.unreached)} body lines), "
          f"roots took {time.perf_counter() - t0:.0f} s")
    for problem in report.problems:
        print(f"  {problem}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
