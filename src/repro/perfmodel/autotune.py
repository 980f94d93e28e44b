"""Model-driven configuration autotuner (``repro tune``).

A distributed solve has a four-dimensional configuration space: the
grid shape (``p x q`` factorization of the rank count), the collective
algorithm (:class:`~repro.perfmodel.collectives.CollectiveAlgo`), the
HEMM fusion tier, and the filter / QR working precision.  Hutter &
Solomonik (PAPERS.md) make the case that the winning configuration
depends on topology and problem shape, so it must be *selected*, not
hard-coded — this module does the selection with the performance model
alone:

1. :func:`enumerate_candidates` spans the config space (every ``p x q``
   factorization x algorithm x fusion x precision);
2. :func:`autotune` scores each candidate with a cheap **model-only dry
   run** — a phantom replay of a fixed convergence trace, no numerics —
   and returns the candidates ranked by modeled solve makespan;
3. :func:`applied` builds a real cluster/grid configured per the winner
   (used by ``repro solve --tuned``, the service and the benchmarks).

The untuned default (:func:`default_config`: squarest grid, ``ring``
collectives, fusion off, fp64) is always in the candidate set, so the
winner's modeled makespan is never worse than the default's.

HEMM fusion is *modeled-time neutral* (DESIGN.md §5c: the fused tier is
charge-identical); it is enumerated so the ranked table shows that
explicitly, scored from a shared dry run, and broken in favour of
``fusion=on`` (host wall-clock win at equal modeled time).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.perfmodel.collectives import CollectiveAlgo
from repro.perfmodel.machine import MachineSpec, juwels_booster
from repro.perfmodel.topology import FatTree
from repro.runtime.config import ExecutionConfig

__all__ = [
    "TuneConfig",
    "TuneResult",
    "TuneReport",
    "DEFAULT_PRECISION_OPTIONS",
    "grid_factorizations",
    "default_config",
    "enumerate_candidates",
    "autotune",
    "applied",
]

#: collective algorithms tried
DEFAULT_ALGOS = ("ring", "tree", "hierarchical", "auto")
#: ``(filter_dtype, qr_dtype)`` pairs (DESIGN.md §5g).  :func:`autotune`
#: folds these into its default candidate set, so ``repro solve
#: --tuned`` searches the fp32 filter and the mixed QR out of the box;
#: ties always break toward fp64 (and the fp64 default config is always
#: a candidate), so a tuned run never models slower — or less precise
#: at equal time — than the seed.
DEFAULT_PRECISION_OPTIONS = (
    ("fp64", "fp64"),
    ("fp32", "fp64"),
    ("fp32", "fp32"),
)


@dataclass(frozen=True)
class TuneConfig:
    """One point of the configuration space: the cluster shape plus the
    :class:`~repro.runtime.config.ExecutionConfig` solves run under."""

    p: int
    q: int
    algo: str = "ring"           # CollectiveAlgo value
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def label(self) -> str:
        ex = self.execution
        bits = [f"{self.p}x{self.q}", self.algo,
                f"fusion={'on' if ex.hemm_fusion else 'off'}"]
        if ex.filter_dtype != "fp64":
            bits.append(f"filter={ex.filter_dtype}")
        if ex.qr_dtype != "fp64":
            bits.append(f"qr={ex.qr_dtype}")
        return " ".join(bits)

    def _score_key(self) -> "TuneConfig":
        """Model-relevant projection (fusion is modeled-time neutral)."""
        return dataclasses.replace(
            self,
            execution=dataclasses.replace(self.execution, hemm_fusion=False),
        )


@dataclass(frozen=True)
class TuneResult:
    """One scored candidate."""

    config: TuneConfig
    makespan: float              # modeled seconds (inf when infeasible)
    filter_time: float = 0.0
    qr_time: float = 0.0
    comm_time: float = 0.0
    is_default: bool = False
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class TuneReport:
    """Ranked results plus the default/best summary the CLI prints."""

    results: tuple[TuneResult, ...]   # ranked, best first
    default: TuneResult
    best: TuneResult

    @property
    def speedup(self) -> float:
        """Modeled makespan ratio default/best (>= 1.0 by construction)."""
        if not (self.best.feasible and self.default.feasible):
            return 1.0
        return self.default.makespan / self.best.makespan


def grid_factorizations(n_ranks: int) -> list[tuple[int, int]]:
    """Every ``p x q = n_ranks`` factorization, squarest first."""
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    pairs = []
    for p in range(1, n_ranks + 1):
        if n_ranks % p == 0:
            pairs.append((p, n_ranks // p))
    pairs.sort(key=lambda pq: (abs(pq[0] - pq[1]), pq[0]))
    return pairs


def default_config(n_ranks: int) -> TuneConfig:
    """The untuned seed configuration: squarest grid, flat ring
    collectives, fusion off, fp64."""
    from repro.runtime.grid import squarest_grid

    p, q = squarest_grid(n_ranks)
    return TuneConfig(p=p, q=q)


def enumerate_candidates(
    n_ranks: int,
    algos: tuple[str, ...] = DEFAULT_ALGOS,
    fusion_options: tuple[bool, ...] = (False, True),
    precision_options: tuple[tuple[str, str], ...] = (("fp64", "fp64"),),
) -> list[TuneConfig]:
    """The candidate grid; always contains :func:`default_config`.

    ``precision_options`` lists ``(filter_dtype, qr_dtype)`` pairs; the
    parameter's own default enumerates fp64-only — :func:`autotune`
    opts its default candidate set into
    :data:`DEFAULT_PRECISION_OPTIONS`.
    """
    cands = []
    for p, q in grid_factorizations(n_ranks):
        for algo in algos:
            CollectiveAlgo.parse(algo)  # validate early
            for fusion in fusion_options:
                for fdt, qdt in precision_options:
                    cands.append(TuneConfig(
                        p=p, q=q, algo=algo,
                        execution=ExecutionConfig(
                            hemm_fusion=fusion, filter_dtype=fdt,
                            qr_dtype=qdt,
                        ),
                    ))
    default = default_config(n_ranks)
    if default not in cands:
        cands.insert(0, default)
    return cands


def _resolve_nodes(n_ranks: int, machine: MachineSpec,
                   ranks_per_node: int | None) -> tuple[int, int]:
    rpn = ranks_per_node if ranks_per_node is not None \
        else max(machine.gpus_per_node, 1)
    return rpn, math.ceil(n_ranks / rpn)


@contextlib.contextmanager
def applied(cfg: TuneConfig, *, n_ranks: int, backend,
            machine: MachineSpec | None = None,
            ranks_per_node: int | None = None,
            nodes_per_leaf: int = 8,
            use_topology: bool = True,
            phantom: bool = False,
            transport=None):
    """A cluster/grid configured per ``cfg`` for the ``with`` body.

    Yields the :class:`~repro.runtime.grid.Grid2D`; its cluster carries
    ``cfg.execution``, so everything solved on it runs the winner's
    execution configuration.  ``transport`` selects the execution
    backend for the data plane (DESIGN.md §5h); its resources (rank
    processes, shm) are released when the scope exits.
    """
    from repro.runtime import Grid2D, VirtualCluster

    machine = machine if machine is not None else juwels_booster()
    rpn, n_nodes = _resolve_nodes(n_ranks, machine, ranks_per_node)
    tree = FatTree(n_nodes, nodes_per_leaf=nodes_per_leaf) \
        if (use_topology and n_nodes > 1) else None
    cluster = VirtualCluster(
        n_ranks, machine=machine, backend=backend, ranks_per_node=rpn,
        phantom=phantom, topology=tree, collective_algo=cfg.algo,
        transport=transport, config=cfg.execution,
    )
    with cluster:
        yield Grid2D(cluster, cfg.p, cfg.q)


def _dry_run(cfg: TuneConfig, *, n_ranks, N, nev, nex, backend, machine,
             ranks_per_node, nodes_per_leaf, use_topology, iterations,
             deg, dtype) -> tuple[float, float, float, float]:
    """Model-only phantom replay; returns (makespan, filter, qr, comm)."""
    from repro import ChaseConfig, ChaseSolver, ConvergenceTrace
    from repro.core.lanczos import SpectralBounds
    from repro.distributed import DistributedHermitian

    trace = ConvergenceTrace.fixed(iterations, nev + nex, deg=deg)
    if cfg.execution.qr_dtype != "fp64":
        # the fixed trace records cond_est = 1.0, which the doubling
        # gate admits — replay the recorded CholeskyQR2 iterations
        # through the mixed first pass so the candidate's QR-phase
        # advantage is scored by the same code path a solve charges
        from repro.core.qr import MIXED_VARIANT, qr_work_precision

        if qr_work_precision(
                np.dtype(dtype), cfg.execution.qr_dtype, 1.0) is not None:
            for rec in trace.records:
                if rec.qr_variant == "CholeskyQR2":
                    rec.qr_variant = MIXED_VARIANT

    with applied(cfg, n_ranks=n_ranks, backend=backend, machine=machine,
                 ranks_per_node=ranks_per_node, nodes_per_leaf=nodes_per_leaf,
                 use_topology=use_topology, phantom=True) as grid:
        Hd = DistributedHermitian.phantom(grid, N, np.dtype(dtype))
        solver = ChaseSolver(grid, Hd, ChaseConfig(nev=nev, nex=nex, deg=deg))
        res = solver.solve_phantom(
            trace,
            bounds=SpectralBounds(3.0, -1.0, 1.0),
        )
    filt = res.timings.get("Filter")
    qr = res.timings.get("QR")
    comm = sum(b.comm for b in res.timings.values())
    return (res.makespan, filt.total if filt else 0.0,
            qr.total if qr else 0.0, comm)


def autotune(
    n_ranks: int,
    N: int,
    nev: int,
    nex: int,
    *,
    backend=None,
    machine: MachineSpec | None = None,
    ranks_per_node: int | None = None,
    nodes_per_leaf: int = 8,
    use_topology: bool = True,
    iterations: int = 2,
    deg: int = 20,
    dtype=np.float64,
    candidates: list[TuneConfig] | None = None,
) -> TuneReport:
    """Score every candidate with a model-only dry run; rank by makespan.

    Ties are broken toward fusion-on (host-wall faster at equal modeled
    time), then the wider precision, then the default algorithm — so
    the ranking is deterministic and never prefers an exotic
    configuration without a modeled reason.
    """
    from repro.runtime import CommBackend

    backend = backend if backend is not None else CommBackend.NCCL
    cands = candidates if candidates is not None \
        else enumerate_candidates(
            n_ranks, precision_options=DEFAULT_PRECISION_OPTIONS
        )
    default = default_config(n_ranks)
    if default not in cands:
        cands = [default, *cands]

    cache: dict[TuneConfig, tuple] = {}
    results = []
    for cfg in cands:
        key = cfg._score_key()
        if key not in cache:
            try:
                cache[key] = _dry_run(
                    cfg, n_ranks=n_ranks, N=N, nev=nev, nex=nex,
                    backend=backend, machine=machine,
                    ranks_per_node=ranks_per_node,
                    nodes_per_leaf=nodes_per_leaf,
                    use_topology=use_topology, iterations=iterations,
                    deg=deg, dtype=dtype,
                )
            except MemoryError as exc:
                cache[key] = (float("inf"), 0.0, 0.0, 0.0, str(exc))
        entry = cache[key]
        error = entry[4] if len(entry) > 4 else None
        results.append(TuneResult(
            config=cfg, makespan=entry[0], filter_time=entry[1],
            qr_time=entry[2], comm_time=entry[3],
            is_default=(cfg == default), error=error,
        ))

    algo_order = {a: i for i, a in enumerate(DEFAULT_ALGOS)}
    results.sort(key=lambda r: (
        r.makespan,
        not r.config.execution.hemm_fusion,
        # at equal modeled time prefer the wider precision
        r.config.execution.filter_dtype != "fp64",
        r.config.execution.qr_dtype != "fp64",
        algo_order.get(r.config.algo, len(algo_order)),
        abs(r.config.p - r.config.q),
        r.config.p,
    ))
    default_res = next(r for r in results if r.is_default)
    best = results[0]
    if not best.feasible:
        raise MemoryError(
            f"no feasible configuration for N={N}, ne={nev + nex} "
            f"on {n_ranks} ranks"
        )
    return TuneReport(results=tuple(results), default=default_res, best=best)
