"""EigenService: the eigensolver-as-a-service facade (DESIGN.md §5i).

Composes the service layer end-to-end: jobs are admitted through the
:class:`~repro.service.scheduler.Scheduler` (shards, priorities, quotas,
deadlines), each job's cluster configuration is chosen by the
:mod:`~repro.perfmodel.autotune` model, sequence steps warm-start from
the :class:`~repro.service.warmstart.WarmStartCache`, and every solve
runs through the ordinary :class:`~repro.core.ChaseSolver` on a fresh
per-job virtual cluster sized to the job's shard — so fault recovery
(§5f), mixed precision (§5g) and transports (§5h) all apply per
job, and one job's faults cannot perturb another's numerics (they
share no cluster state).

Typical use::

    svc = EigenService(total_ranks=8, n_shards=2)
    for k, H in enumerate(hamiltonians):
        svc.submit(SolveJob(H=H, nev=40, nex=20,
                            sequence_id="scf", step=k))
    results = svc.run()

``repro serve --jobs jobs.json`` is the CLI face of the same loop.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Sequence

import numpy as np

from repro.core import ChaseConfig, ChaseSolver
from repro.perfmodel.autotune import (
    TuneConfig,
    applied as _tuned_scope,
    autotune as _model_autotune,
    default_config,
)
from repro.perfmodel.machine import MachineSpec
from repro.runtime.backend import CommBackend
from repro.runtime.config import ExecutionConfig
from repro.runtime.faults import FaultError, FaultPlan, RecoveryExhaustedError
from repro.runtime.transport import COMM_MODELS
from repro.service.jobs import JobRecord, ServiceResult, SolveJob
from repro.service.scheduler import (
    RunOutcome,
    Scheduler,
    Shard,
    partition_ranks,
)
from repro.service.warmstart import WarmStartCache, degree_hint, starting_basis

__all__ = ["EigenService", "scf_sequence", "jobs_from_spec", "load_jobs"]


def _parse_backend(backend) -> CommBackend:
    if isinstance(backend, CommBackend):
        return backend
    name = str(backend).lower()
    # CLI shorthands (``mpi``), same mapping as `repro solve`
    return COMM_MODELS.get(name) or CommBackend(name)


class EigenService:
    """Multi-tenant eigensolver service over the virtual cluster.

    Parameters
    ----------
    total_ranks / n_shards:
        The rank budget, partitioned into disjoint shards
        (:func:`~repro.service.scheduler.partition_ranks`); each job
        runs on one whole shard.
    backend / machine / transport:
        Cluster flavour for every job (``"nccl"`` / ``"mpi"`` / ...,
        machine spec, execution transport — DESIGN.md §5h).
    quota / max_queue:
        Admission control (per-tenant in-flight quota, bounded queue).
    warmstart:
        Enable the sequence warm-start cache.  A warm hit starts the
        next step from the cached subspace, skips its Lanczos phase
        with the cached spectral bounds and seeds the filter with the
        cached degree plan's :func:`~repro.service.warmstart.degree_hint`.
    tune:
        ``"off"`` — untuned default grid; ``"fast"`` (default) — a
        two-candidate model shoot-out (default vs fused
        auto-collectives); ``"full"`` — the whole candidate space.
        Every candidate is fp64 (precision is decided per iteration at
        run time, DESIGN.md §5e).  Decisions are memoized per (shard
        size, problem shape).
    refresh_extras:
        ``False`` (default) reuses the cached subspace *exactly*
        (bit-identical warm starts, see ``tests/test_warmstart.py``);
        ``True`` re-randomizes the ``nex`` buffer columns per step.
    """

    def __init__(
        self,
        *,
        total_ranks: int = 8,
        n_shards: int = 2,
        backend="nccl",
        machine: MachineSpec | None = None,
        transport: str | None = None,
        quota: int | None = None,
        max_queue: int = 64,
        warmstart: bool = True,
        tune: str = "fast",
        refresh_extras: bool = False,
    ) -> None:
        if tune not in ("off", "fast", "full"):
            raise ValueError(f"tune must be off/fast/full, got {tune!r}")
        self.shards = partition_ranks(total_ranks, n_shards)
        self.backend = _parse_backend(backend)
        self.machine = machine
        self.transport = transport
        self.tune = tune
        self.refresh_extras = refresh_extras
        self.cache: WarmStartCache | None = (
            WarmStartCache() if warmstart else None
        )
        self.scheduler = Scheduler(
            self.shards, runner=self._run_job,
            quota=quota, max_queue=max_queue,
        )
        #: memoized autotune decisions per (shard size, problem shape)
        self._tuned: dict[tuple, tuple[str, TuneConfig]] = {}

    # ------------------------------------------------------------ admission
    def submit(self, job: SolveJob, submit_time: float = 0.0) -> JobRecord:
        """Admit one job (raises the typed
        :class:`~repro.service.jobs.AdmissionError` on backpressure)."""
        return self.scheduler.submit(job, submit_time)

    def submit_many(
        self, jobs: Sequence[SolveJob | tuple[SolveJob, float]]
    ) -> list[JobRecord]:
        """Admit a batch; items are jobs or ``(job, submit_time)``."""
        recs = []
        for item in jobs:
            job, t = item if isinstance(item, tuple) else (item, 0.0)
            recs.append(self.submit(job, t))
        return recs

    # ------------------------------------------------------------ execution
    def run(self) -> list[ServiceResult]:
        """Drain the queue and return one :class:`ServiceResult` per
        admitted job, in submission order."""
        return [self._assemble(rec) for rec in self.scheduler.run()]

    # ----------------------------------------------------------- internals
    def _tuned_config(self, shard: Shard, job: SolveJob) -> tuple[str, TuneConfig]:
        key = (shard.n_ranks, job.N, job.nev, job.nex,
               np.dtype(job.H.dtype).str)
        hit = self._tuned.get(key)
        if hit is not None:
            return hit
        if self.tune == "off":
            cfg = default_config(shard.n_ranks)
            decision = ("default", cfg)
        else:
            base = default_config(shard.n_ranks)
            if self.tune == "fast":
                candidates = [
                    base,
                    dataclasses.replace(
                        base, algo="auto", execution=ExecutionConfig(
                            hemm_fusion=True)),
                ]
            else:
                candidates = None  # full enumeration
            report = _model_autotune(
                shard.n_ranks, job.N, job.nev, job.nex,
                backend=self.backend, machine=self.machine,
                iterations=1, dtype=job.H.dtype, candidates=candidates,
            )
            cfg = report.best.config
            decision = (cfg.label(), cfg)
        self._tuned[key] = decision
        return decision

    def _run_job(self, job: SolveJob, shard: Shard, start_time: float) -> RunOutcome:
        from repro.distributed import DistributedHermitian

        dtype = np.dtype(job.H.dtype)
        overrides: dict[str, Any] = {}
        if job.deg is not None:
            overrides["deg"] = job.deg
        if job.max_iter is not None:
            overrides["max_iter"] = job.max_iter
        cfg = ChaseConfig(nev=job.nev, nex=job.nex, tol=job.tol, **overrides)

        # warm-start lookup (typed: "hit" or "miss:<reason>")
        warm = "cold"
        entry = None
        if self.cache is not None and job.sequence_id is not None:
            entry, miss = self.cache.get(job.sequence_id, job.N, job.ne, dtype)
            warm = "hit" if entry is not None else f"miss:{miss.value}"
        if entry is not None and entry.degrees is not None \
                and entry.degrees.size:
            cfg = dataclasses.replace(
                cfg, deg=degree_hint(entry.degrees, cfg.deg, cfg.max_deg),
            )

        label, tcfg = self._tuned_config(shard, job)
        payload: dict[str, Any] = {
            "tuned_label": label, "tuned_config": tcfg, "warmstart": warm,
        }
        faults = None
        if job.fault_seed is not None:
            faults = FaultPlan.random(
                job.fault_seed, shard.n_ranks,
                horizon=job.fault_horizon, n_events=job.fault_events,
            )

        # each job gets a fresh cluster sized to its shard: fault plans,
        # rank clocks, transport accounts and the execution config are
        # job-private by construction, so concurrent jobs cannot perturb
        # each other
        with _tuned_scope(
            tcfg, n_ranks=shard.n_ranks, backend=self.backend,
            machine=self.machine, transport=self.transport,
        ) as grid:
            Hd = DistributedHermitian.from_dense(grid, job.H)
            solver = ChaseSolver(grid, Hd, cfg, faults=faults)
            rng = np.random.default_rng(job.seed)
            V0 = None
            bounds = None
            if entry is not None:
                V0 = starting_basis(
                    entry.basis, job.N, cfg, dtype, rng,
                    refresh_extras=self.refresh_extras,
                )
                bounds = entry.bounds
            try:
                res = solver.solve(V0=V0, rng=rng, return_vectors=True,
                                   bounds=bounds, return_subspace=True)
            except (FaultError, RecoveryExhaustedError,
                    np.linalg.LinAlgError) as exc:
                return RunOutcome(
                    duration=grid.cluster.makespan(),
                    payload=payload,
                    error=f"{type(exc).__name__}: {exc}",
                )
            payload["comm_stats"] = grid.comm_stats()

        saved = 0
        if warm == "hit" and entry is not None:
            saved = max(0, entry.cold_iterations - res.iterations)
        if self.cache is not None and job.sequence_id is not None \
                and res.converged and res.subspace is not None:
            # chain the sequence's *cold anchor* iteration count through
            # the cache so every later step's saving is measured against
            # the step that actually started cold
            cold_iter = entry.cold_iterations if entry is not None \
                else res.iterations
            self.cache.put(
                job.sequence_id, step=job.step, basis=res.subspace,
                bounds=res.bounds, degrees=res.degrees,
                iterations=res.iterations, cold_iterations=cold_iter,
            )
        payload.update(
            iterations_saved=saved,
            iterations=res.iterations,
            matvecs=res.matvecs,
            filter_matvecs=res.trace.total_matvecs,
            converged=res.converged,
            eigenvalues=res.eigenvalues,
            residual_norms=res.residual_norms,
            recoveries=res.recoveries,
            makespan=res.makespan,
            chase=res,
        )
        return RunOutcome(duration=res.makespan, payload=payload)

    def _assemble(self, rec: JobRecord) -> ServiceResult:
        p = rec.payload
        return ServiceResult(
            job_id=rec.job.job_id,
            tenant=rec.job.tenant,
            state=rec.state,
            sequence_id=rec.job.sequence_id,
            step=rec.job.step,
            shard=rec.shard,
            submit_time=rec.submit_time,
            start_time=rec.start_time,
            finish_time=rec.finish_time,
            queue_wait=rec.queue_wait,
            makespan=p.get("makespan", 0.0),
            tuned_label=p.get("tuned_label", "default"),
            tuned_config=p.get("tuned_config"),
            warmstart=p.get("warmstart", "cold"),
            iterations_saved=p.get("iterations_saved", 0),
            iterations=p.get("iterations", 0),
            matvecs=p.get("matvecs", 0),
            filter_matvecs=p.get("filter_matvecs", 0),
            converged=p.get("converged", False),
            eigenvalues=p.get("eigenvalues"),
            residual_norms=p.get("residual_norms"),
            recoveries=p.get("recoveries", 0),
            error=rec.error,
            comm_stats=p.get("comm_stats", ()),
            chase=p.get("chase"),
        )


# --------------------------------------------------------------- job specs
def scf_sequence(
    N: int,
    steps: int,
    *,
    seed: int = 0,
    drift: float = 1e-2,
    dtype=np.float64,
) -> list[np.ndarray]:
    """A correlated Hermitian sequence mimicking an SCF loop: a uniform
    test matrix followed by geometrically shrinking random Hermitian
    perturbations (the self-consistent potential converging)."""
    from repro.matrices import uniform_matrix

    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    H = uniform_matrix(N, rng=rng, dtype=dtype)
    out = [H]
    for k in range(1, steps):
        P = rng.standard_normal((N, N))
        if dtype.kind == "c":
            P = P + 1j * rng.standard_normal((N, N))
        P = (P + P.conj().T) / 2
        H = (H + (drift / 2**k) * P).astype(dtype)
        out.append(H)
    return out


def jobs_from_spec(spec: dict) -> list[tuple[SolveJob, float]]:
    """Expand a jobs-file dict into ``(job, submit_time)`` pairs.

    Top-level key ``jobs`` lists entries; each entry names a problem
    (``n``, ``nev``, ``nex``, optional ``seed``/``tol``/``dtype``) plus
    service fields (``tenant``, ``priority``, ``deadline``,
    ``submit_time``, ``fault_seed``).  An entry with ``sequence`` and
    ``steps`` expands into that many correlated jobs (one per SCF step,
    drifting by ``drift``) sharing the warm-start cache entry.
    """
    entries = spec.get("jobs")
    if not isinstance(entries, list) or not entries:
        raise ValueError("jobs file needs a non-empty top-level 'jobs' list")
    out: list[tuple[SolveJob, float]] = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"jobs[{i}] must be a mapping")
        try:
            N = int(e["n"])
            nev = int(e["nev"])
        except KeyError as exc:
            raise ValueError(f"jobs[{i}] is missing required key {exc}") from None
        nex = int(e.get("nex", max(2, nev // 2)))
        seed = int(e.get("seed", i))
        dtype = np.dtype(e.get("dtype", "float64"))
        common = dict(
            nev=nev, nex=nex,
            tol=float(e.get("tol", 1e-10)),
            tenant=str(e.get("tenant", "default")),
            priority=int(e.get("priority", 0)),
            deadline=None if e.get("deadline") is None
            else float(e["deadline"]),
            fault_seed=None if e.get("fault_seed") is None
            else int(e["fault_seed"]),
        )
        submit_time = float(e.get("submit_time", 0.0))
        seq = e.get("sequence")
        steps = int(e.get("steps", 1))
        if seq is None and steps != 1:
            raise ValueError(f"jobs[{i}]: 'steps' > 1 requires 'sequence'")
        hams = scf_sequence(N, steps, seed=seed,
                            drift=float(e.get("drift", 1e-2)), dtype=dtype)
        for k, H in enumerate(hams):
            out.append((
                SolveJob(H=H, sequence_id=seq, step=k, seed=seed + k,
                         **common),
                submit_time,
            ))
    return out


def load_jobs(path: str) -> list[tuple[SolveJob, float]]:
    """Load a jobs file (JSON always; YAML when PyYAML is installed)."""
    ext = os.path.splitext(path)[1].lower()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if ext in (".yml", ".yaml"):
        try:
            import yaml
        except ImportError:
            raise RuntimeError(
                f"{path}: reading YAML job files needs PyYAML, which is "
                "not installed — use a .json jobs file instead"
            ) from None
        spec = yaml.safe_load(text)
    else:
        spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: jobs file must be a mapping")
    return jobs_from_spec(spec)
