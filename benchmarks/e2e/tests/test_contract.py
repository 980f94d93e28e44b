"""BENCHMARK.json and the command's last line follow the driver contract."""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

from benchmarks.e2e import metrics, run, workloads

DOC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_and_limits():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["paths"] == ["benchmarks/e2e"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60
    assert 2 <= len(DOC["workloads"]) <= 8
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer")
             for e in DOC[k]]
    assert all(NAME.match(n) for n in names)
    for block in ("workloads", "end_to_end", "per_layer"):
        col = [e["name"] for e in DOC[block]]
        assert len(col) == len(set(col))
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for e in DOC["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}
        assert 0 < e["bound"] <= 0.25 and UNIT.match(e["unit"])
    for e in DOC["per_layer"]:
        assert set(e) == {"name", "unit", "better"} and UNIT.match(e["unit"])
    setup = next(e for e in DOC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in DOC["end_to_end"])


def test_document_matches_the_catalogue():
    assert [(w["name"], w["why"]) for w in DOC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS]
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in DOC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(e["name"], e["unit"], e["better"])
            for e in DOC["per_layer"]] == list(metrics.PER_LAYER)


def _last_line(capsys, argv):
    code = run.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_last_line_untraced(capsys):
    code, last = _last_line(
        capsys, ["--workload", "filter_dense", "--smoke", "--seed", "3"])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {n for n, *_ in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_last_line_traced(capsys):
    code, last = _last_line(
        capsys, ["--workload", "phantom_strong", "--smoke", "--trace", "1"])
    assert code == 0 and last["correct"] is True
    assert set(last["metrics"]) == {n for n, *_ in metrics.PER_LAYER}
    assert last["metrics"]["distributed.hemm.numeric.calls"]["value"] == 0
    assert last["metrics"]["arrays.phantom.kernel_charges"]["value"] > 0


def test_environment_scrub_drops_repro_knobs_and_caps_threads():
    env = {"REPRO_BACKEND": "mp", "REPRO_HEMM_FUSION": "1", "HOME": "/x",
           "OPENBLAS_NUM_THREADS": "4096"}
    info = run.scrub_environment(env)
    assert info["scrubbed_env"] == ["REPRO_BACKEND", "REPRO_HEMM_FUSION"]
    assert set(env) == {"HOME", "OPENBLAS_NUM_THREADS"}
    assert int(env["OPENBLAS_NUM_THREADS"]) == info["nproc"]


# ------------------------------------------------- no process is left behind
def _in_session(sid: int) -> list[str]:
    """Command lines of the processes (zombies too) in session ``sid``."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmd = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue    # ended while we looked
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            found.append(f"{entry.name} {cmd.decode(errors='replace')}")
    return found


def _start(*argv):
    return subprocess.Popen(
        [sys.executable, str(run.HERE / "run.py"), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True)


def test_mp_workload_leaves_no_process_behind():
    """Not the workers, and not multiprocessing's resource tracker, which
    by itself outlives the process that started it."""
    proc = _start("--workload", "spmd_mp", "--smoke", "--seed", "2")
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert _in_session(proc.pid) == []


def test_sigterm_stops_the_workers_too():
    proc = _start("--workload", "spmd_mp", "--seconds", "60")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:      # until workers are up
        if len(_in_session(proc.pid)) >= 3:
            break
        time.sleep(0.05)
    os.kill(proc.pid, signal.SIGTERM)
    proc.communicate(timeout=60)
    assert proc.returncode == 128 + signal.SIGTERM
    assert _in_session(proc.pid) == []
