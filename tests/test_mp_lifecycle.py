"""Process lifecycle of the ``mp`` backend's leaf workers (DESIGN.md §5h).

A rank process is ``runtime/_mp_worker.py`` launched by path: it must
stay a leaf (stdlib + NumPy), start whatever the orchestrator's
``__main__`` is, die with its orchestrator, and leave nothing behind —
no zombie, no ``/dev/shm`` segment, no resource-tracker complaint.
Everything here runs in fresh interpreters, where those things show.
"""

import ast
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.runtime import TransportDeadRankError, TransportError, mp_backend
from repro.runtime.mp_backend import MpTransport

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(mp_backend._WORKER)

_ALLREDUCE = """
import numpy as np
from repro.runtime import VirtualCluster, Grid2D
print("main body runs")
cluster = VirtualCluster(2, backend="mp")
bufs = [np.full(4, 1.5), np.full(4, 2.0)]
out = Grid2D(cluster, 2, 1).col_comm(0).allreduce(bufs)
print("total", out[0].tolist(), out[1].tolist())
cluster.close()
"""


ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def _python(*argv, **kw):
    return subprocess.run([sys.executable, *argv], env=ENV, text=True,
                          capture_output=True, timeout=120, **kw)


def _running(pid: int) -> bool:
    """Whether ``pid`` still executes (a zombie awaiting a reaper does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in "ZX"


class TestMainModuleIsNeverReimported:
    """The worker never sees the orchestrator's ``__main__``."""

    def _check(self, proc):
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.count("main body runs") == 1
        assert "total [3.5, 3.5, 3.5, 3.5] [3.5, 3.5, 3.5, 3.5]" in proc.stdout

    def test_main_read_from_stdin(self):
        self._check(_python("-", input=_ALLREDUCE))

    def test_script_without_main_guard(self, tmp_path):
        script = tmp_path / "unguarded.py"
        script.write_text(_ALLREDUCE)
        self._check(_python(str(script)))


class TestDeadAtStartUp:
    def test_killed_before_first_reply(self):
        with MpTransport(2, timeout=20.0) as t:
            g = t.group([0, 1])
            t.worker(1).proc.kill()  # started, not yet answered anything
            with pytest.raises(TransportDeadRankError) as err:
                g.barrier_sync()
            assert err.value.ranks == [1]
            assert "rank(s) [1] died" in str(err.value)
            assert "killed by signal 9" in str(err.value)

    def test_worker_that_cannot_start_reports_its_exit_status(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(mp_backend, "_WORKER", str(tmp_path / "gone.py"))
        with MpTransport(1, timeout=20.0) as t:
            with pytest.raises(TransportDeadRankError,
                               match=r"rank\(s\) \[0\] died.*exit status 2"):
                t.rpc(0, ("ping",))

    def test_not_posix_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(mp_backend, "os", SimpleNamespace(name="nt"))
        with pytest.raises(TransportError, match="POSIX only"):
            MpTransport(1)


def test_segment_growth_drops_the_old_generation():
    """A payload over the segment size re-creates it one generation on;
    the root worker, which reduced into the old one, must unmap it."""
    with MpTransport(2, timeout=20.0, min_segment_bytes=64) as t:
        g = t.group([0, 1])
        for n in (8, 64, 8):
            parts = [np.arange(n, dtype=float), np.ones(n)]
            total = g.allreduce_move(parts, False, True, True)[0]
            np.testing.assert_array_equal(total, np.arange(n) + 1.0)
        assert [t.worker(r).generation for r in (0, 1)] == [2, 2]


_SOLVE_AND_CLOSE = """
import os
import numpy as np
from repro import ChaseConfig, ChaseSolver
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.runtime import Grid2D, VirtualCluster

cluster = VirtualCluster(2, backend="mp")
grid = Grid2D(cluster, 2, 1)
Hd = DistributedHermitian.from_dense(
    grid, uniform_matrix(96, rng=np.random.default_rng(1)))
res = ChaseSolver(grid, Hd, ChaseConfig(nev=8, nex=6)).solve(
    rng=np.random.default_rng(7))
assert res.converged
token = cluster.transport.uid.token
pids = [w.proc.pid for w in cluster.transport._workers]
cluster.close()
left = [f for f in os.listdir("/dev/shm") if f.startswith(f"repro-{token}-")]
try:
    reaped = os.waitpid(-1, os.WNOHANG)  # (0, 0): only live children left
except ChildProcessError:
    reaped = (0, 0)
print("workers", len(pids), "segments", left, "unreaped", reaped[0])
"""


def test_solve_and_close_leaves_nothing_behind():
    proc = _python("-c", _SOLVE_AND_CLOSE)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "workers 2 segments [] unreaped 0"
    assert proc.stderr == ""  # no "resource_tracker: ... leaked shared_memory"


def test_workers_do_not_outlive_a_killed_orchestrator():
    code = ("import time\n"
            "from repro.runtime.mp_backend import MpTransport\n"
            "t = MpTransport(2)\n"
            "t.group([0, 1]).barrier_sync()\n"
            "print(*[w.proc.pid for w in t._workers], flush=True)\n"
            "time.sleep(60)\n")
    orch = subprocess.Popen([sys.executable, "-c", code], env=ENV, text=True,
                            stdout=subprocess.PIPE)
    try:
        pids = [int(p) for p in orch.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(p) for p in pids)
        orch.send_signal(signal.SIGKILL)
        orch.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(_running(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_running(p) for p in pids)
    finally:
        orch.kill()
        orch.wait()
        orch.stdout.close()


def test_worker_is_a_leaf_program():
    """Stdlib + NumPy only: importing the library (and SciPy behind it)
    is the start-up cost this layout exists to avoid."""
    probe = ("import runpy, sys\n"
             f"runpy.run_path({str(WORKER)!r}, run_name='probe')\n"
             "print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('repro', 'scipy')))\n")
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
    # launched by path, its directory heads the worker's sys.path: no
    # sibling module may shadow a standard-library name
    siblings = {p.stem for p in WORKER.parent.glob("*.py")}
    assert not siblings & set(sys.stdlib_module_names)


def test_pyproject_version_is_read_from_the_package():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^dynamic = \["version"\]$', pyproject, re.M)
    assert 'version = {attr = "repro.__version__"}' in pyproject
    assert not re.search(r'^version = "', pyproject, re.M)
    # a literal, so setuptools resolves it without importing the package
    literals = [
        ast.literal_eval(node.value)
        for node in ast.parse((SRC / "repro/__init__.py").read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
    ]
    assert literals == [repro.__version__]
