"""Ablation — QR variant selection (Algorithm 4's design choices).

Sweeps the filtered-block condition number and compares, for each forced
QR variant and for the heuristic, (a) the orthogonality error of the Q
factor and (b) the modeled cost at paper scale.  Demonstrates why the
selection mechanism exists:

* CholeskyQR1 is cheapest but loses orthogonality beyond kappa ~ 1e4
  (u^-1/2 applies to kappa^2 of the Gram matrix);
* CholeskyQR2 holds to ~1e8, then breaks down;
* shifted CholeskyQR2 survives to ~u^-1 at ~1.5x the CholeskyQR2 cost;
* HHQR always works but costs orders of magnitude more;
* the heuristic, fed the Algorithm 5 estimate, always picks a variant
  that succeeds while never paying for more stability than needed.
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import emit
from repro.core.qr import QRReport, caqr_1d, cholesky_qr, shifted_cholesky_qr2
from repro.baselines import hhqr_1d
from repro.distributed import BlockMap1D, DistributedMultiVector
from repro.reporting import render_table
from repro.runtime import CommBackend, Grid2D, VirtualCluster

M, NE = 12000, 384
CONDITIONS = (1e1, 1e4, 1e7, 1e10, 1e13)


def _conditioned(rng, cond):
    U = np.linalg.qr(rng.standard_normal((M, NE)))[0]
    W = np.linalg.qr(rng.standard_normal((NE, NE)))[0]
    s = np.logspace(0, -np.log10(cond), NE)
    return (U * s[None, :]) @ W.T


def _fresh(V):
    cluster = VirtualCluster(4, backend=CommBackend.NCCL)
    grid = Grid2D(cluster)
    C = DistributedMultiVector.from_global(grid, V, BlockMap1D(M, grid.p), "C")
    return grid, C


def _ortho(C):
    Q = C.gather()
    return float(np.abs(Q.T @ Q - np.eye(NE)).max())


def _run_variant(V, variant):
    grid, C = _fresh(V)
    rep = QRReport()
    if variant == "CholeskyQR1":
        info = cholesky_qr(grid, C, 1, rep)
    elif variant == "CholeskyQR2":
        info = cholesky_qr(grid, C, 2, rep)
    elif variant == "sCholeskyQR2":
        shifted_cholesky_qr2(grid, C, rep)
        info = 1 if rep.fallback_hhqr else 0
    else:  # HHQR
        hhqr_1d(grid, C)
        info = 0
    return info, _ortho(C), grid.cluster.makespan()


def test_ablation_qr_variants(benchmark):
    rng = np.random.default_rng(23)
    rows = []
    for cond in CONDITIONS:
        V = _conditioned(rng, cond)
        for variant in ("CholeskyQR1", "CholeskyQR2", "sCholeskyQR2", "HHQR"):
            info, err, t = _run_variant(V, variant)
            status = "breakdown" if info else ("ok" if err < 1e-8 else "lost-ortho")
            rows.append([f"{cond:.0e}", variant, status, err, round(t * 1e3, 3)])
        # the heuristic with an honest estimate always succeeds
        grid, C = _fresh(V)
        rep = caqr_1d(grid, C, est_cond=cond * 2)
        err = _ortho(C)
        rows.append(
            [f"{cond:.0e}", f"auto->{rep.variant}", "ok", err,
             round(grid.cluster.makespan() * 1e3, 3)]
        )
        assert err < 1e-8, cond
    emit(
        "ablation_qr_variants",
        render_table(
            ["kappa(X)", "Variant", "Status", "||Q^H Q - I||", "model t (ms)"],
            rows,
            title="Ablation — QR variants across condition numbers "
                  f"({M}x{NE} blocks, 2x2 grid)",
        ),
    )
    # the design claims the ablation must support
    V = _conditioned(rng, 1e7)
    _, err1, t1 = _run_variant(V, "CholeskyQR1")
    _, err2, t2 = _run_variant(V, "CholeskyQR2")
    _, _, t_hh = _run_variant(V, "HHQR")
    assert err1 > 1e-8 > err2          # QR2 rescues what QR1 loses
    assert t2 < t_hh / 5               # and is far cheaper than HHQR

    benchmark.pedantic(
        _run_variant, args=(_conditioned(rng, 1e4), "CholeskyQR2"),
        rounds=1, iterations=1,
    )


def test_ablation_heuristic_cost_staircase(benchmark):
    """The heuristic's cost grows stepwise with the estimate: 1 pass below
    20, 2 passes to 1e8, 3 passes + shift above."""
    rng = np.random.default_rng(29)
    V = _conditioned(rng, 5.0)
    times = []
    for est in (5.0, 1e5, 1e10):
        grid, C = _fresh(V)
        rep = caqr_1d(grid, C, est_cond=est)
        times.append((rep.variant, rep.chol_iterations, grid.cluster.makespan()))
    assert [t[1] for t in times] == [1, 2, 3]
    assert times[0][2] < times[1][2] < times[2][2]
    emit(
        "ablation_qr_staircase",
        render_table(
            ["est cond", "variant", "Cholesky passes", "model t (ms)"],
            [
                [f"{e:.0e}", v, it, round(t * 1e3, 3)]
                for e, (v, it, t) in zip((5.0, 1e5, 1e10), times)
            ],
            title="Ablation — heuristic pays only for the stability it needs",
        ),
    )
    benchmark.pedantic(
        caqr_1d, args=(*_fresh(V), 5.0), rounds=1, iterations=1
    )
