"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.distributed import DistributedHermitian
from repro.runtime import CommBackend, Grid2D, VirtualCluster

# Derandomize every hypothesis suite (scheduler invariants, warm-start,
# campaign resume/identity): example choice becomes a pure function of
# the test body, so campaign CI runs are reproducible across machines
# and re-runs — a failing example always re-fails.  Opt out locally
# with HYPOTHESIS_PROFILE=dev for fresh random exploration.
try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - hypothesis always in CI
    pass


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_sym(rng) -> np.ndarray:
    """A 40x40 real symmetric matrix."""
    A = rng.standard_normal((40, 40))
    return (A + A.T) / 2


def make_grid(
    n_ranks: int = 4,
    backend: CommBackend = CommBackend.NCCL,
    p: int | None = None,
    q: int | None = None,
    **kw,
) -> Grid2D:
    cluster = VirtualCluster(n_ranks, backend=backend, **kw)
    return Grid2D(cluster, p, q)


@pytest.fixture
def grid22() -> Grid2D:
    return make_grid(4)


@pytest.fixture
def grid23() -> Grid2D:
    return make_grid(6, p=2, q=3)


def distribute(grid: Grid2D, H: np.ndarray) -> DistributedHermitian:
    return DistributedHermitian.from_dense(grid, H)


def assert_one_array(mv) -> None:
    """``mv`` holds one array: part ``k``'s block is rows
    ``index_map.range_of(k)`` of ``mv.data`` (same memory, shape and
    strides), every rank of the part holds that one view object, and
    ``gather()`` is a copy of the array."""
    data = mv.data
    n_parts = mv.grid.p if mv.layout == "C" else mv.grid.q
    assert len(mv.parts) == n_parts
    for k, part in enumerate(mv.parts):
        a, b = mv.index_map.range_of(k)
        assert part.shape == (b - a, mv.ne)
        if part.size:  # an empty view points anywhere
            assert part.strides == data.strides
            assert part.ctypes.data == data.ctypes.data + a * data.strides[0]
    for i in range(mv.grid.p):
        for j in range(mv.grid.q):
            assert mv.local(i, j) is mv.parts[i if mv.layout == "C" else j]
    gathered = mv.gather()
    assert not np.shares_memory(gathered, data)
    np.testing.assert_array_equal(gathered, data)


def assert_tiles(A, blocks, rowmap, colmap) -> None:
    """``blocks[(i, j)]`` is ``A[rows_i, cols_j]`` for every grid block
    (same memory, shape and strides)."""
    assert len(blocks) == rowmap.parts * colmap.parts
    for (i, j), blk in blocks.items():
        (r0, r1), (c0, c1) = rowmap.range_of(i), colmap.range_of(j)
        assert blk.shape == (r1 - r0, c1 - c0)
        if blk.size:  # an empty view points anywhere
            assert blk.strides == A.strides
            assert blk.ctypes.data == (A.ctypes.data + r0 * A.strides[0]
                                       + c0 * A.strides[1])
