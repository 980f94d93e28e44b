"""Execution configuration is a value on the cluster (DESIGN.md,
"Execution configuration").

Three contracts:

* **validated** — every ``ExecutionConfig`` field rejects a malformed
  value, and the CLI's one environment parser rejects a malformed
  ``REPRO_*`` variable by name instead of silently using the default;
* **unambient** — the library never reads the environment: a campaign
  row stores the same numbers whatever ``REPRO_*`` the process carries,
  and a default cluster has the default config;
* **isolated by construction** — a config lives on its cluster and
  nowhere else: it survives a fault shrink, and solvers, threads and
  service jobs with different configs cannot see each other's.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver
from repro.cli import _env_defaults
from repro.distributed import DistributedHemm, DistributedHermitian
from repro.matrices import uniform_matrix
from repro.perfmodel.autotune import default_config
from repro.runtime import (
    ExecutionConfig,
    FaultEvent,
    FaultKind,
    FaultPlan,
    Grid2D,
    VirtualCluster,
)
from repro.runtime.config import PRECISION_MODES
from repro.service import EigenService, JobState, SolveJob

TUNED = ExecutionConfig(hemm_fusion=True, filter_dtype="fp32")

#: the ambient state the parent commit let leak into library calls
POLLUTED = {
    "REPRO_COLL_ALGO": "tree",
    "REPRO_FILTER_DTYPE": "fp32",
    "REPRO_HEMM_FUSION": "1",
}


# ---------------------------------------------------------------- validated
def test_defaults_are_the_seed_path():
    assert ExecutionConfig() == ExecutionConfig(
        numeric_dedup=True, hemm_fusion=False,
        filter_dtype="fp64", qr_dtype="fp64")
    assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
        "numeric_dedup", "hemm_fusion", "filter_dtype", "qr_dtype"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExecutionConfig().hemm_fusion = True


def test_kernel_workers_is_gone_not_aliased():
    """One way to run a kernel batch: the worker count is not a field
    (a plain ``TypeError``, no shim) and the CLI's env parser neither
    returns nor reads one — a malformed value is not even looked at."""
    with pytest.raises(TypeError, match="kernel_workers"):
        ExecutionConfig(kernel_workers=1)
    assert not hasattr(VirtualCluster(2), "run_kernels")
    env = _env_defaults({"REPRO_KERNEL_WORKERS": "abc"})
    assert env == _env_defaults({})
    assert "kernel_workers" not in env and len(env) == 7


def test_sub_fp32_words_are_gone_not_aliased():
    """Two precisions: a sub-fp32 token is the ordinary ``ValueError``
    naming the accepted values, the compression field the ordinary
    ``TypeError``, and its environment variable is not even looked at."""
    assert PRECISION_MODES == ("fp64", "fp32")
    for token in ("bf16", "fp16", "auto"):
        for field in ("filter_dtype", "qr_dtype"):
            with pytest.raises(ValueError, match=r"\('fp64', 'fp32'\)"):
                ExecutionConfig(**{field: token})
    with pytest.raises(TypeError, match="comm_compress"):
        ExecutionConfig(comm_compress="none")
    with pytest.raises(ValueError, match=r"REPRO_FILTER_DTYPE.*'fp64', 'fp32'"):
        _env_defaults({"REPRO_FILTER_DTYPE": "bf16"})
    assert _env_defaults({"REPRO_COMM_COMPRESS": "zstd"}) == _env_defaults({})


def test_pipelined_filter_is_gone_not_aliased():
    """One reduction schedule: the chunk count is not a field (a plain
    ``TypeError``, no shim), the HEMM apply takes no ``pipeline``
    argument, and the two environment variables are neither read — a
    malformed value is not even looked at — nor returned."""
    with pytest.raises(TypeError, match="pipeline_chunks"):
        ExecutionConfig(pipeline_chunks=4)
    assert "pipeline" not in inspect.signature(
        DistributedHemm.apply).parameters
    env = _env_defaults({"REPRO_FILTER_PIPELINE": "1",
                         "REPRO_FILTER_CHUNKS": "bogus"})
    assert env == _env_defaults({})
    assert not {"pipeline_filter", "pipeline_chunks"} & set(env)


@pytest.mark.parametrize("field, bad, env_var, env_bad", [
    ("numeric_dedup", "yes", None, None),
    ("hemm_fusion", 1, "REPRO_HEMM_FUSION", "maybe"),
    ("filter_dtype", "fp23", "REPRO_FILTER_DTYPE", "fp23"),
    ("qr_dtype", "FP32", "REPRO_QR_DTYPE", "double"),
    (None, None, "REPRO_COLL_ALGO", "nope"),
    (None, None, "REPRO_BACKEND", "smoke-signals"),
    (None, None, "REPRO_FAULT_SEED", "x7"),
    (None, None, "REPRO_CHECKPOINT_EVERY", "-1"),
])
def test_malformed_knobs_are_loud(field, bad, env_var, env_bad):
    """No knob is silently replaced by its default: the field names
    itself, the environment parser names the variable."""
    if field is not None:
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: bad})
    if env_var is not None:
        with pytest.raises(ValueError, match=env_var):
            _env_defaults({env_var: env_bad})


def test_env_defaults_parse_every_knob():
    assert _env_defaults({}) == {
        "hemm_fusion": False, "filter_dtype": "fp64", "qr_dtype": "fp64",
        "coll_algo": None,
        "transport": None, "faults": None, "checkpoint": None,
    }
    assert _env_defaults({
        "REPRO_HEMM_FUSION": "on", "REPRO_FILTER_DTYPE": " FP32 ",
        "REPRO_QR_DTYPE": "fp32", "REPRO_COLL_ALGO": "tree",
        "REPRO_BACKEND": "mp", "REPRO_FAULT_SEED": "11",
        "REPRO_CHECKPOINT_EVERY": "2",
    }) == {
        "hemm_fusion": True, "filter_dtype": "fp32", "qr_dtype": "fp32",
        "coll_algo": "tree",
        "transport": "mp", "faults": 11, "checkpoint": 2,
    }


def test_cluster_rejects_a_non_config():
    with pytest.raises(TypeError, match="ExecutionConfig"):
        VirtualCluster(2, config={"hemm_fusion": True})


# ---------------------------------------------------------------- unambient
def _python(code: str, extra_env: dict) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra_env)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


_CAMPAIGN = """
import json, sys, tempfile, pathlib
from repro.campaign import CampaignDB, CampaignRunner, spec_from_dict

spec = spec_from_dict({
    "campaign": "ambient", "seed": 3,
    "matrix": [
        {"name": "numeric", "set": {
            "kind": "solve", "n": 96, "nev": 8, "nex": 6, "ranks": 4,
            "tier": "dedup", "seed": 5}},
        {"name": "replay", "set": {
            "kind": "phantom", "n": 20000, "nev": 200, "nex": 60,
            "nodes": 2}},
    ],
})
with tempfile.TemporaryDirectory() as tmp:
    db = CampaignDB(pathlib.Path(tmp) / "fresh.sqlite")
    stats = CampaignRunner(spec, db).run()
    assert stats.executed == 2 and stats.failed == 0, stats
    print(json.dumps([
        [row.hash, row.result["makespan"], row.result["phases"],
         row.result["comm"], row.result["iterations"]]
        for row in db.rows("ambient")
    ], sort_keys=True))
"""


def test_campaign_rows_do_not_depend_on_the_environment():
    """Same content hash, same stored numbers: an unset spec field
    means the default, never "whatever the process inherited"."""
    clean = _python(_CAMPAIGN, {})
    polluted = _python(_CAMPAIGN, POLLUTED)
    assert clean.strip() and polluted == clean


def test_import_and_default_cluster_ignore_the_environment():
    out = _python(
        "import repro\n"
        "from repro.runtime import ExecutionConfig, VirtualCluster\n"
        "c = VirtualCluster(4)\n"
        "assert c.config == ExecutionConfig(), c.config\n"
        "print(c.collective_algo.value, c.transport.name)\n",
        {**POLLUTED, "REPRO_BACKEND": "mp",
         "REPRO_QR_DTYPE": "bogus"},
    )
    assert out.split() == ["ring", "orchestrated"]


# ----------------------------------------------------------------- isolated
N, NEV, NEX = 120, 10, 6
HMAT = uniform_matrix(N, rng=np.random.default_rng(42))


def _solver(config: ExecutionConfig | None, *, p=2, q=2, faults=None):
    grid = Grid2D(VirtualCluster(p * q, config=config), p, q)
    Hd = DistributedHermitian.from_dense(grid, HMAT)
    # deg=10 keeps the first condition estimate under the fp32 gate, so
    # an fp32 filter mode really filters narrow
    return ChaseSolver(grid, Hd, ChaseConfig(nev=NEV, nex=NEX, deg=10),
                       faults=faults)


def _run(solver):
    res = solver.solve(rng=np.random.default_rng(7))
    grid = solver.grid
    return (res, grid.comm_stats(), grid.comm_stats_levels())


def _assert_same_run(got, solo):
    (res, stats, levels), (ref, stats0, levels0) = got, solo
    assert res.makespan == ref.makespan
    assert stats == stats0 and levels == levels0
    assert res.iterations == ref.iterations
    assert res.qr_variants == ref.qr_variants
    assert res.precision_log == ref.precision_log
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues,
                               rtol=0, atol=1e-12)


def test_shrunk_cluster_keeps_its_config():
    cluster = VirtualCluster(4, config=TUNED)
    assert cluster.shrink([3]).config is TUNED
    assert cluster.shrink([3]).n_ranks == 3


def test_fault_shrunk_solve_keeps_fused_shape():
    """A rank death mid-solve re-lays the grid out as 1x3; the survivor
    cluster must keep running its own config: the fused solve still
    charges exactly what the per-block one does after the shrink."""
    def shrunk(config):
        base = _run(_solver(config))[0]
        plan = FaultPlan(events=(FaultEvent(
            kind=FaultKind.RANK_DEATH, rank=3, time=0.5 * base.makespan),))
        solver = _solver(config, faults=plan)
        res, _, _ = _run(solver)
        assert res.converged and res.recoveries >= 1
        assert (solver.grid.p, solver.grid.q) == (1, 3)
        assert solver.grid.cluster.config is config
        # the survivor grid's communicators are new: they count only
        # post-shrink traffic
        return solver.grid.row_comm(0).stats, res

    s_block, r_block = shrunk(ExecutionConfig())
    s_fused, r_fused = shrunk(ExecutionConfig(hemm_fusion=True))
    assert r_fused.iterations == r_block.iterations
    assert s_fused.as_tuple() == s_block.as_tuple()
    assert r_fused.makespan == r_block.makespan


def test_solvers_built_up_front_do_not_share_configuration():
    """Two solvers with different configs, built before either runs,
    each reproduce their solo run — solved in the opposite order, and
    on two threads at once."""
    solo_default = _run(_solver(None))
    solo_tuned = _run(_solver(TUNED))
    assert solo_tuned[0].precision_log[0] == "fp32"
    assert solo_tuned[1] != solo_default[1]

    a, b = _solver(None), _solver(TUNED)
    got_b = _run(b)
    got_a = _run(a)
    _assert_same_run(got_a, solo_default)
    _assert_same_run(got_b, solo_tuned)

    solvers = {"default": _solver(None), "tuned": _solver(TUNED)}
    results: dict = {}

    def work(name):
        try:
            results[name] = _run(solvers[name])
        except Exception as exc:  # surfaced by the asserts below
            results[name] = exc

    threads = [threading.Thread(target=work, args=(n,)) for n in solvers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive()
    for name, solo in (("default", solo_default), ("tuned", solo_tuned)):
        assert not isinstance(results[name], Exception), results[name]
        _assert_same_run(results[name], solo)


def test_service_mixing_tuned_and_untuned_jobs_equals_each_alone():
    """One ``EigenService`` run holding a tuned and an untuned job
    returns what each job returns when it is the only one."""
    H_a = uniform_matrix(120, rng=np.random.default_rng(1))
    H_b = uniform_matrix(128, rng=np.random.default_rng(2))
    decisions = {
        120: ("forced-tuned", dataclasses.replace(
            default_config(4), algo="auto", execution=TUNED)),
        128: ("default", default_config(4)),
    }

    def serve(*hams):
        svc = EigenService(total_ranks=4, n_shards=1, tune="off",
                           warmstart=False)
        for H in hams:
            n = H.shape[0]
            svc._tuned[(4, n, 10, 6, np.dtype(H.dtype).str)] = decisions[n]
            svc.submit(SolveJob(H=H, nev=10, nex=6, deg=10, seed=n,
                                job_id=f"n{n}"))
        out = {r.job_id: r for r in svc.run()}
        assert all(r.state is JobState.DONE and r.converged
                   for r in out.values())
        return out

    mixed = serve(H_a, H_b)
    alone = {**serve(H_a), **serve(H_b)}
    assert mixed["n120"].tuned_config.execution == TUNED
    assert mixed["n128"].tuned_config.execution == ExecutionConfig()
    for job_id, ref in alone.items():
        got = mixed[job_id]
        assert got.makespan == ref.makespan
        assert got.comm_stats == ref.comm_stats
        assert got.iterations == ref.iterations
        assert got.chase.precision_log == ref.chase.precision_log
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
    # and reversing the submission order changes neither job
    swapped = serve(H_b, H_a)
    for job_id, ref in alone.items():
        assert swapped[job_id].makespan == ref.makespan
        assert swapped[job_id].comm_stats == ref.comm_stats
