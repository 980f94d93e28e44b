"""The campaign runner (DESIGN.md §5k).

Executes the PENDING runs of a :class:`~repro.campaign.spec.CampaignSpec`
one after another, in :meth:`~repro.campaign.spec.CampaignSpec.expand`
order, recording every outcome in the
:class:`~repro.campaign.db.CampaignDB`:

* a run that raises is recorded FAILED with its typed error — the
  campaign keeps going;
* on resume, DONE rows whose config hash still matches are skipped —
  and the tests prove that skip is equivalent to re-running
  (:func:`execute_run` on a stored config touches no DB, so its result
  compares bit-exactly with the stored one);
* an interrupt (``interrupt_after``) raises
  :class:`CampaignInterrupted`, so a kill mid-campaign looks exactly
  like a dead process — rows stuck RUNNING, everything after them
  still PENDING.

Run kinds map onto the repo's execution stack:

``solve``
    a numeric distributed solve on the simulated cluster, under the
    :class:`~repro.runtime.config.ExecutionConfig` the row's tier and
    precision knobs name, its backend/transport and fault plan;
``phantom``
    a paper-scale cost-model replay (bit-reproducible across machines —
    the committed report artifacts are built from these);
``tune``
    an autotuner dry run (model-only candidate search);
``probe``
    a cheap deterministic pseudo-run the property-based harness uses to
    exercise the runner/DB machinery quickly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.core import ChaseConfig, ChaseSolver, ConvergenceTrace
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.perfmodel.autotune import autotune
from repro.runtime import (
    ExecutionConfig,
    FaultPlan,
    Grid2D,
    VirtualCluster,
)
from repro.runtime.transport import split_backend

from .db import CampaignDB, CampaignError, RunState
from .spec import CampaignSpec, ResolvedRun

__all__ = [
    "CampaignInterrupted",
    "ProbeFailure",
    "CampaignStats",
    "CampaignRunner",
    "execute_run",
    "TIERS",
]


class CampaignInterrupted(CampaignError):
    """The campaign was killed mid-run (budget hit or ^C emulation)."""


class ProbeFailure(RuntimeError):
    """A probe run configured with ``fail: true`` (harness-injected)."""


#: execution tier -> its configuration: the default per-block HEMM
#: and the fused-panel one
TIERS: dict[str, ExecutionConfig] = {
    "dedup": ExecutionConfig(),
    "fused": ExecutionConfig(hemm_fusion=True),
}

# ---------------------------------------------------------------------------
# result assembly
# ---------------------------------------------------------------------------


def _phases(timings: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for name, b in timings.items():
        out[name] = {
            "compute": float(b.compute),
            "comm": float(b.comm),
            "comm_hidden": float(b.comm_hidden),
            "datamove": float(b.datamove),
            "recovery": float(b.recovery),
            "total": float(b.total),
        }
    return out


def _comm_summary(grid: Grid2D) -> dict[str, Any]:
    flat = grid.comm_stats()
    levels = grid.comm_stats_levels()
    summary = {
        "collectives": int(sum(s[0] for s in flat)),
        "messages": int(sum(s[1] for s in flat)),
        "bytes": float(sum(s[2] for s in flat)),
        "intra_messages": int(sum(l[0] for l in levels)),
        "inter_messages": int(sum(l[1] for l in levels)),
        "intra_bytes": float(sum(l[2] for l in levels)),
        "inter_bytes": float(sum(l[3] for l in levels)),
        # fingerprint of the full per-communicator trace: two runs with
        # equal fingerprints issued bit-identical collective traffic
        "sha": hashlib.sha256(
            repr((flat, levels)).encode()
        ).hexdigest()[:16],
    }
    return summary


def _solver_result(res, grid: Grid2D) -> dict[str, Any]:
    out: dict[str, Any] = {
        "converged": bool(res.converged),
        "locked": int(res.locked),
        "iterations": int(res.iterations),
        "matvecs": int(res.matvecs),
        "makespan": float(res.makespan),
        "phases": _phases(res.timings),
        "comm": _comm_summary(grid),
        "recoveries": int(res.recoveries),
        "checkpoints": int(res.checkpoints),
        "qr_variants": sorted(set(res.qr_variants)),
    }
    if res.eigenvalues is not None:
        out["eig_sha"] = hashlib.sha256(
            np.ascontiguousarray(res.eigenvalues).tobytes()
        ).hexdigest()[:16]
    if res.residual_norms is not None and len(res.residual_norms):
        out["residual_max"] = float(np.max(res.residual_norms))
    if res.precision_log:
        tokens = [str(t) for t in res.precision_log]
        out["precision"] = {
            "narrow_iterations": sum(1 for t in tokens if t != "fp64"),
            "tokens": sorted(set(tokens)),
            "promote_reason": res.precision_promote_reason,
        }
    return out


_OPS = {
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
    "eq": lambda a, b: a == b,
}


def metric_value(result: Mapping[str, Any], path: str) -> Any:
    """Fetch a dotted-path metric (``phases.Filter.total``) from a result."""
    node: Any = result
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise CampaignError(f"no metric {path!r} in stored result")
        node = node[part]
    return node


def _apply_gates(
    result: dict[str, Any], gates: Mapping[str, Any]
) -> dict[str, Any]:
    """Evaluate per-run gates; store both the audit record and the
    ``target_met_*`` booleans the reports roll up."""
    evaluated: dict[str, Any] = {}
    for name, gate in gates.items():
        op = gate.get("op", "ge")
        if op not in _OPS:
            raise CampaignError(f"gate {name!r}: unknown op {op!r}")
        observed = metric_value(result, gate["metric"])
        met = bool(_OPS[op](observed, gate["value"]))
        evaluated[name] = {
            "metric": gate["metric"], "op": op, "value": gate["value"],
            "observed": observed, "met": met,
        }
        result[f"target_met_{name}"] = met
    if evaluated:
        result["gates"] = evaluated
    return result


# ---------------------------------------------------------------------------
# per-kind executors
# ---------------------------------------------------------------------------


def _execution(cfg: Mapping[str, Any], base: ExecutionConfig
               ) -> ExecutionConfig:
    """The run's :class:`ExecutionConfig`, from its spec row alone.

    ``base`` comes from the row's tier; a knob
    the row leaves unset keeps ``base``'s value — never the process's
    or the environment's, so equal config hashes mean equal executions.
    """
    knobs = {
        k: cfg[k] for k in ("filter_dtype", "qr_dtype") if cfg.get(k)
    }
    return dataclasses.replace(base, **knobs)


def _execute_solve(cfg: Mapping[str, Any]) -> dict[str, Any]:
    rng = np.random.default_rng(cfg["seed"])
    dtype = np.complex128 if cfg["dtype"] == "complex128" else np.float64
    H = uniform_matrix(cfg["n"], rng=rng, dtype=dtype)
    faults = None
    if cfg["fault_seed"] is not None:
        faults = FaultPlan.random(
            cfg["fault_seed"], cfg["ranks"],
            horizon=cfg["fault_horizon"], n_events=cfg["fault_events"],
        )
    with VirtualCluster(
        cfg["ranks"], backend=cfg["backend"],
        config=_execution(cfg, TIERS[cfg["tier"]]),
    ) as cluster:
        grid = Grid2D(cluster)
        dist = DistributedHermitian.from_dense(grid, H)
        config = ChaseConfig(
            nev=cfg["nev"], nex=cfg["nex"], tol=cfg["tol"],
            **({"deg": cfg["deg"]} if cfg["deg"] is not None else {}),
        )
        solver = ChaseSolver(
            grid, H=dist, config=config, faults=faults,
            checkpoint_every=cfg["checkpoint_every"],
        )
        res = solver.solve(rng=np.random.default_rng(cfg["seed"] + 1))
        out = _solver_result(res, grid)
    if cfg["oracle"]:
        exact = np.linalg.eigvalsh(H)[: cfg["nev"]]
        out["oracle_err"] = float(
            np.max(np.abs(res.eigenvalues[: cfg["nev"]] - exact))
        )
    return out


def _execute_phantom(cfg: Mapping[str, Any]) -> dict[str, Any]:
    # the paper's configurations (Sec. 4): STD/NCCL run 4 ranks/node x
    # 1 GPU, LMS 1 rank/node x 4 GPUs — same shape as make_phantom_solver
    rpn, gpr = (1, 4) if cfg["scheme"] == "lms" else (4, 1)
    trace = ConvergenceTrace.fixed(
        cfg["iters"], cfg["nev"] + cfg["nex"], deg=cfg["deg"],
        qr_variant=cfg["qr_variant"],
    )
    cluster = VirtualCluster(
        cfg["nodes"] * rpn, backend=cfg["backend"], ranks_per_node=rpn,
        gpus_per_rank=gpr, phantom=True,
        config=_execution(cfg, TIERS["dedup"]),
    )
    grid = Grid2D(cluster)
    H = DistributedHermitian.phantom(grid, cfg["n"])
    config = ChaseConfig(
        nev=cfg["nev"], nex=cfg["nex"], deg=cfg["deg"]
    )
    solver = ChaseSolver(grid, H, config, scheme=cfg["scheme"])
    res = solver.solve_phantom(trace)
    return _solver_result(res, grid)


def _execute_tune(cfg: Mapping[str, Any]) -> dict[str, Any]:
    report = autotune(
        cfg["ranks"], cfg["n"], cfg["nev"], cfg["nex"],
        backend=split_backend(cfg["backend"])[0],
        iterations=cfg["iterations"],
    )
    return {
        "makespan": float(report.best.makespan),
        "default_makespan": float(report.default.makespan),
        "speedup": float(report.speedup),
        "best_label": report.best.config.label(),
        "candidates_scored": len(report.results),
        "filter_time": float(report.best.filter_time),
        "qr_time": float(report.best.qr_time),
    }


def _execute_probe(cfg: Mapping[str, Any]) -> dict[str, Any]:
    if cfg["fail"]:
        raise ProbeFailure(f"probe {cfg.get('label', '?')} asked to fail")
    rng = np.random.default_rng(cfg["seed"])
    draws = rng.random(max(1, int(cfg["payload"])))
    return {
        "makespan": float(cfg["value"]) + float(draws[0]),
        "metrics": {
            f"m{i}": float(v) for i, v in enumerate(draws)
        },
    }


_EXECUTORS = {
    "solve": _execute_solve,
    "phantom": _execute_phantom,
    "tune": _execute_tune,
    "probe": _execute_probe,
}


def execute_run(config: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one resolved run config and return its result dict.

    Pure with respect to the DB: given the same resolved config this
    returns the same result (the skip-equals-run property), so callers
    may compare a stored result against a forced re-execution bit-
    exactly via canonical JSON.
    """
    result = _EXECUTORS[config["kind"]](config)
    return _apply_gates(result, config.get("gates", {}) or {})


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStats:
    """What one :meth:`CampaignRunner.run` pass did."""

    total: int          # runs in the expanded spec
    executed: int       # runs actually executed this pass
    done: int           # DONE rows after the pass
    failed: int         # FAILED rows after the pass
    resumed_skips: int  # DONE rows skipped because their hash matched
    recovered: int      # stale RUNNING rows reset on entry


class CampaignRunner:
    """Drive a campaign spec against a run DB, one run at a time."""

    def __init__(
        self,
        spec: CampaignSpec,
        db: CampaignDB,
        *,
        interrupt_after: int | None = None,
        interrupt_mid_run: bool = False,
    ) -> None:
        self.spec = spec
        self.db = db
        self.interrupt_after = interrupt_after
        self.interrupt_mid_run = interrupt_mid_run

    def _execute(self, run: ResolvedRun) -> None:
        self.db.transition(run.hash, RunState.RUNNING)
        try:
            result = execute_run(run.config)
        except Exception as exc:
            # one run's crash never takes down the campaign: record it
            # FAILED (typed) and move on
            self.db.transition(run.hash, RunState.FAILED,
                               error=f"{type(exc).__name__}: {exc}")
            return
        self.db.transition(run.hash, RunState.DONE, result=result)

    # ----------------------------------------------------------------- run
    def run(self, only: str | None = None) -> CampaignStats:
        """Execute (or resume) the campaign; returns pass statistics."""
        runs = self.spec.expand()
        self.db.set_meta(self.spec.name, "report", self.spec.report)
        self.db.register(runs)
        recovered = self.db.recover_stale(self.spec.name)
        selected = [
            r for r in runs if only is None or only in r.label
        ]
        todo = [
            r for r in selected
            if self.db.state(r.hash) is RunState.PENDING
        ]
        resumed_skips = sum(
            1 for r in selected
            if self.db.state(r.hash) is RunState.DONE
        )
        for executed, run in enumerate(todo):
            if executed == self.interrupt_after:
                if self.interrupt_mid_run:
                    # emulate a process dying *inside* a run: the row is
                    # left RUNNING for resume-time recovery
                    self.db.transition(run.hash, RunState.RUNNING)
                raise CampaignInterrupted(
                    f"campaign {run.campaign!r} interrupted after "
                    f"{executed} run(s)"
                )
            self._execute(run)
        counts = self.db.counts(self.spec.name)
        return CampaignStats(
            total=len(selected),
            executed=len(todo),
            done=counts[RunState.DONE.value],
            failed=counts[RunState.FAILED.value],
            resumed_skips=resumed_skips,
            recovered=recovered,
        )
