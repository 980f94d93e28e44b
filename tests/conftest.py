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
