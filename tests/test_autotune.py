"""The model-driven configuration autotuner (DESIGN.md §5e).

The contract under test: the untuned default is always a scored
candidate, so ``repro tune``'s winner never models slower than the
default; the ranking is deterministic; applying the winner reproduces
its modeled makespan on a real solve path; infeasible problems fail
loudly instead of returning a bogus winner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver
from repro.cli import main
from repro.distributed import DistributedHermitian
from repro.matrices import uniform_matrix
from repro.perfmodel.autotune import (
    TuneConfig,
    applied,
    autotune,
    default_config,
    enumerate_candidates,
    grid_factorizations,
)
from repro.runtime import CommBackend, ExecutionConfig

# the 2x4 reference problem (matches bench_wallclock's NCCL grid point)
REF = dict(n_ranks=8, N=800, nev=96, nex=32)


@pytest.fixture(scope="module")
def report():
    return autotune(REF["n_ranks"], REF["N"], REF["nev"], REF["nex"],
                    backend=CommBackend.NCCL)


def test_grid_factorizations():
    assert grid_factorizations(8) == [(2, 4), (4, 2), (1, 8), (8, 1)]
    assert grid_factorizations(1) == [(1, 1)]
    assert grid_factorizations(7) == [(1, 7), (7, 1)]
    with pytest.raises(ValueError):
        grid_factorizations(0)


def test_default_always_a_candidate():
    cands = enumerate_candidates(8)
    assert default_config(8) in cands
    assert default_config(8) == TuneConfig(p=2, q=4)
    # and even a restricted candidate list gets the default injected
    rep = autotune(**REF, backend=CommBackend.NCCL,
                   candidates=[TuneConfig(p=8, q=1, algo="tree")])
    assert rep.default.config == default_config(8)


def test_winner_never_regresses_default(report):
    assert report.best.makespan <= report.default.makespan
    assert report.speedup >= 1.0
    assert report.results[0] is report.best
    # ranked: makespans non-decreasing down the table
    spans = [r.makespan for r in report.results]
    assert spans == sorted(spans)


def test_default_space_spans_fp64_and_fp32_only(report):
    """4 grids x 4 algorithms x 2 fusion x 3 (filter, qr) precision
    pairs; no candidate carries another token."""
    assert len(report.results) == 96
    assert {(r.config.execution.filter_dtype, r.config.execution.qr_dtype)
            for r in report.results} == \
        {("fp64", "fp64"), ("fp32", "fp64"), ("fp32", "fp32")}


def test_reference_problem_strictly_improves(report):
    """On the 2x4 NCCL reference the fp32 filter is a real modeled win
    (DESIGN.md §5g), so the tuner must find a strict improvement."""
    assert report.best.makespan < report.default.makespan
    assert report.best.config.execution.filter_dtype == "fp32"


def test_ranking_deterministic(report):
    again = autotune(REF["n_ranks"], REF["N"], REF["nev"], REF["nex"],
                     backend=CommBackend.NCCL)
    assert [r.config for r in again.results] == \
        [r.config for r in report.results]
    assert [r.makespan for r in again.results] == \
        [r.makespan for r in report.results]


def test_fusion_is_model_neutral(report):
    by_key = {}
    for r in report.results:
        key = r.config._score_key()
        by_key.setdefault(key, set()).add(r.makespan)
    for key, spans in by_key.items():
        assert len(spans) == 1, key  # fusion on/off scored identically


def test_applied_scopes_toggles(report):
    """The winner's execution config lives on the cluster ``applied``
    builds — and nowhere else: a cluster built beside it is untouched."""
    best = report.best.config
    assert best.execution != ExecutionConfig()
    with applied(best, n_ranks=8, backend=CommBackend.NCCL) as grid:
        assert (grid.p, grid.q) == (best.p, best.q)
        assert grid.cluster.config == best.execution
        with applied(default_config(8), n_ranks=8,
                     backend=CommBackend.NCCL) as other:
            assert other.cluster.config == ExecutionConfig()
        assert grid.cluster.config == best.execution


def test_applied_winner_solves_numerically(report):
    """The tuned configuration must solve to the same eigenpairs as the
    default — tuning moves modeled time, never numerics."""
    H = uniform_matrix(160, rng=np.random.default_rng(5))
    cfg = ChaseConfig(nev=10, nex=5)

    def run(tc):
        with applied(tc, n_ranks=8, backend=CommBackend.NCCL) as grid:
            Hd = DistributedHermitian.from_dense(grid, H)
            return ChaseSolver(grid, Hd, cfg).solve(
                rng=np.random.default_rng(2))

    tuned = run(report.best.config)
    base = run(default_config(8))
    np.testing.assert_allclose(tuned.eigenvalues, base.eigenvalues,
                               rtol=0, atol=1e-10)


def test_infeasible_problem_raises():
    with pytest.raises(MemoryError):
        autotune(8, 2_000_000, 96, 32, backend=CommBackend.NCCL,
                 candidates=[default_config(8)])


def test_cli_tune_smoke(capsys):
    rc = main(["tune", "--smoke"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out and "REGRESSION" not in out


def test_cli_tune_table(capsys):
    rc = main(["tune", "--top", "4", "--iterations", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "autotune: 8 ranks" in out
    assert "default" in out and "winner:" in out


def test_cli_solve_tuned(capsys):
    rc = main(["solve", "--n", "200", "--nev", "8", "--distributed",
               "--ranks", "8", "--tuned", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tuned config:" in out
    assert "converged: True" in out
