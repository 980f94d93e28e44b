"""Model fingerprint: phantom replays whose every modeled number is pinned.

A phantom replay is pure model arithmetic — no BLAS, no random numbers —
so its makespan, per-phase breakdowns and CommStats are the same doubles
on every machine.  ``tests/data/model_fingerprint.json`` holds them as
last re-recorded on purpose (the Lanczos block sweep, DESIGN.md §5l;
the rank-charge values before that were carried unchanged through the
per-shape-class refactor of DESIGN.md §5j); a refactor of how modeled
time reaches a rank must reproduce every one of them exactly, because
each rank still has to see the same left-to-right sequence of float
adds.

Regenerate (only when a change is *meant* to move the model, and say so
in the CHANGELOG)::

    PYTHONPATH=src python tests/test_model_fingerprint.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver, ConvergenceTrace, IterationRecord
from repro.core.lanczos import SpectralBounds
from repro.core.qr import MIXED_VARIANT
from repro.distributed import DistributedHermitian
from repro.perfmodel.topology import FatTree
from repro.runtime import CommBackend, ExecutionConfig, Grid2D, VirtualCluster

DATA = pathlib.Path(__file__).parent / "data" / "model_fingerprint.json"

#: the In2O3 locking profile of Fig. 3b (``benchmarks/_common``), reduced
_LOCKED_FRACTION = (0.0, 0.0, 0.30, 0.55, 0.75, 0.90, 0.97)
_IN2O3_QR = ("sCholeskyQR2",) * 3 + ("CholeskyQR2",) * 4


def _trace(ne: int, qr=_IN2O3_QR, cond: float = 1e9) -> ConvergenceTrace:
    trace = ConvergenceTrace()
    for it, (frac, variant) in enumerate(zip(_LOCKED_FRACTION, qr)):
        locked = int(frac * ne)
        lo, hi = (20, 20) if it == 0 else (12, 34)
        degs = np.sort(
            (np.ceil(np.linspace(lo, hi, ne - locked) / 2) * 2).astype(np.int64))
        trace.append(IterationRecord(
            degrees=degs, locked_before=locked, new_converged=0,
            qr_variant=variant, cond_est=cond, matvecs=int(degs.sum())))
    return trace


def _replay(cluster, *, N, nev, nex, p=None, q=None, dtype=np.complex128,
            scheme="new", slow=None, trace=None) -> dict:
    grid = Grid2D(cluster, p, q)
    H = DistributedHermitian.phantom(grid, N, dtype)
    for rank_id, factor in (slow or {}).items():
        cluster.ranks[rank_id].slowdown = factor
    solver = ChaseSolver(grid, H, ChaseConfig(nev=nev, nex=nex, deg=20),
                         scheme=scheme)
    res = solver.solve_phantom(
        trace if trace is not None else _trace(nev + nex),
        bounds=SpectralBounds(3.0, -1.0, 1.0), include_lanczos=True)
    return {
        "makespan": repr(res.makespan),
        "matvecs": res.matvecs,
        "phases": {ph: {**dataclasses.asdict(pb), "total": pb.total}
                   for ph, pb in res.timings.items()},
        "comm_stats": grid.comm_stats(),
        "comm_stats_levels": grid.comm_stats_levels(),
    }


def _strong(backend):
    return lambda: _replay(
        VirtualCluster(144, backend=backend, ranks_per_node=4, phantom=True),
        N=11_547, nev=120, nex=40)


CASES = {
    "in2o3_12x12_nccl": _strong(CommBackend.NCCL),
    "in2o3_12x12_mpi_staged": _strong(CommBackend.MPI_STAGED),
    "nonsquare_2x4": lambda: _replay(
        VirtualCluster(8, phantom=True), N=1001, nev=60, nex=20, p=2, q=4,
        dtype=np.float64),
    # 1000 over 3 parts is ragged (334, 333, 333) on both grid axes
    "block_3x3_staged": lambda: _replay(
        VirtualCluster(9, backend=CommBackend.MPI_STAGED, phantom=True),
        N=1000, nev=60, nex=20),
    "lms_3x3": lambda: _replay(
        VirtualCluster(9, backend=CommBackend.MPI_STAGED, ranks_per_node=1,
                       gpus_per_rank=4, phantom=True),
        N=1000, nev=60, nex=20, scheme="lms"),
    "straggler_3x4": lambda: _replay(
        VirtualCluster(12, phantom=True), N=1001, nev=60, nex=20, p=3, q=4,
        slow={5: 1.7}),
    # cond 100 opens the fp32 gates: the narrow filter charges the one-time
    # H-block cast on every rank, ahead of that rank's first narrow GEMM
    "fp32_filter_and_qr_4x4": lambda: _replay(
        VirtualCluster(16, phantom=True,
                       config=ExecutionConfig(filter_dtype="fp32",
                                              qr_dtype="fp32")),
        N=1003, nev=60, nex=20,
        trace=_trace(80, qr=(MIXED_VARIANT,) * 3 + ("CholeskyQR1",) * 4,
                     cond=100.0)),
    "hierarchical_fattree_4x4": lambda: _replay(
        VirtualCluster(16, ranks_per_node=2, phantom=True,
                       topology=FatTree(8, nodes_per_leaf=2),
                       collective_algo="hierarchical"),
        N=1003, nev=60, nex=20,
        trace=_trace(80, qr=("HHQR",) + _IN2O3_QR[1:])),
}


def _normalised(fingerprint: dict) -> dict:
    """As the JSON file holds it (tuples become lists; floats survive a
    ``repr`` round trip exactly)."""
    return json.loads(json.dumps(fingerprint))


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_fingerprint(name):
    want = json.loads(DATA.read_text())[name]
    got = _normalised(CASES[name]())
    assert got["makespan"] == want["makespan"]
    assert got["phases"] == want["phases"]
    assert got["comm_stats"] == want["comm_stats"]
    assert got["comm_stats_levels"] == want["comm_stats_levels"]
    assert got == want


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(
        {name: _normalised(CASES[name]()) for name in sorted(CASES)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
