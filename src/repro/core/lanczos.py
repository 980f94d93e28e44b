"""Distributed Lanczos + DoS estimation of the spectral bounds
(Algorithm 1 / 2, line 1-2).

ChASE needs three scalars before filtering:

* ``b_sup``  — an *upper bound* on ``lambda_max(H)`` (the filter damps
  ``[mu_ne, b_sup]``; if ``b_sup < lambda_max`` the filter amplifies the
  top of the spectrum and diverges, so the bound must be safe);
* ``mu_1``   — an estimate of ``lambda_min`` (used for the scaling
  factors of the stable three-term recurrence);
* ``mu_ne``  — an estimate of the ``ne``-th smallest eigenvalue (the
  lower edge of the damped interval).

A handful of short Lanczos runs provides all three: Ritz values with
their residual bounds bracket the spectrum, and the Gaussian-quadrature
weights (squared first eigenvector components) give a stochastic
cumulative Density of States whose ``ne``-quantile estimates ``mu_ne``.

The recurrence runs through the same distributed HEMM as the filter,
with one extra B->C redistribution per step (the recurrence needs
``H v`` back in the layout of ``v``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.core.filter import mv_axpby
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector
from repro.distributed.redistribute import redistribute_b_to_c

__all__ = ["SpectralBounds", "lanczos_bounds", "lanczos_ritz"]


@dataclass(frozen=True)
class SpectralBounds:
    """Spectral estimates returned by the Lanczos pre-processing."""

    b_sup: float
    mu1: float
    mu_ne: float


def _allreduce_col_dots(grid, X, Y) -> np.ndarray:
    """Global per-column ``X^H Y`` for C-layout multivectors.

    With aliased operands the per-column dot products are unique per
    grid row: replica columns (j > 0) charge the kernel and their
    collective without recomputing (replication-aware numeric mode).
    """
    dedup = X.aliased and Y.aliased and not X.is_phantom
    partials = X.allreduce(X.blockwise(
        lambda k, key: k.dot_columns(X.blocks[key], Y.blocks[key]),
        aliased=dedup), shared=dedup)
    return partials[(0, 0)]


def _scale_all(grid, X, factor: float) -> None:
    # the scale is in place: an aliased multivector's replicas share one
    # ndarray, which must be scaled exactly once per replication group
    # (every rank is charged the kernel; a slot holding its root's array
    # is not scaled again)
    def root_of(i, j):
        root = X.rep_root(i, j)
        return root if X.blocks[(i, j)] is X.blocks[root] else (i, j)

    grid.charged_map(
        X.classes(), lambda k, key: k.scale(X.blocks[key], factor),
        phantom=X.is_phantom, root_of=root_of if X.aliased else None)


def _lanczos_sweep(
    hemm: DistributedHemm, rng: np.random.Generator, steps: int
) -> tuple[list[float], list[float]]:
    """One distributed Lanczos recurrence from a fresh random start.

    Returns the tridiagonal coefficients ``(alphas, betas)``; all HEMM
    applications, redistributions and allreduces are honestly charged.
    """
    grid = hemm.grid
    H = hemm.H
    N = H.N
    dtype = np.dtype(H.dtype)
    v = rng.standard_normal(N)
    if dtype.kind == "c":
        v = v + 1j * rng.standard_normal(N)
    v = (v / np.linalg.norm(v)).astype(dtype)
    V = DistributedMultiVector.from_global(grid, v[:, None], H.rowmap, "C")
    V_prev: DistributedMultiVector | None = None
    beta = 0.0
    alphas: list[float] = []
    betas: list[float] = []

    for _k in range(steps):
        Bmv = hemm.apply(V, slice(0, 1))
        W = DistributedMultiVector.zeros(grid, H.rowmap, "C", 1, dtype, False)
        redistribute_b_to_c(grid, Bmv, W)
        alpha = float(_allreduce_col_dots(grid, V, W)[0].real)
        W = mv_axpby(1.0, W, -alpha, V)
        if V_prev is not None:
            W = mv_axpby(1.0, W, -beta, V_prev)
        beta = float(np.sqrt(_allreduce_col_dots(grid, W, W)[0].real))
        alphas.append(alpha)
        betas.append(beta)
        if beta < 1e-12 * max(abs(alpha), 1.0):
            break
        _scale_all(grid, W, 1.0 / beta)
        V_prev, V = V, W
    return alphas, betas


def lanczos_ritz(
    hemm: DistributedHemm,
    *,
    steps: int = 25,
    runs: int = 1,
    rng: np.random.Generator | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(ritz_values, residual_bounds)`` of ``runs`` Lanczos sweeps.

    Each run's Ritz values come with their rigorous Krylov residual
    bounds: ``|theta_j - lambda| <= resid_j`` holds for *some* true
    eigenvalue ``lambda`` of the operator.  That one-sided guarantee is
    what spectrum-coverage checks need: a well-converged probe value
    that is far from every accepted eigenvalue *proves* the acceptance
    missed spectrum, with no false positives regardless of probe
    quality (DESIGN.md §5f).  All distributed work is honestly charged.
    """
    rng = rng if rng is not None else np.random.default_rng()
    steps = max(2, min(steps, hemm.H.N - 1))
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for _run in range(runs):
        alphas, betas = _lanczos_sweep(hemm, rng, steps)
        k = len(alphas)
        theta, U = scipy.linalg.eigh_tridiagonal(
            np.array(alphas), np.array(betas[: k - 1])
        )
        resid = betas[k - 1] * np.abs(U[-1, :])
        order = np.argsort(theta)
        out.append((theta[order], resid[order]))
    return out


def lanczos_bounds(
    hemm: DistributedHemm,
    ne: int,
    *,
    steps: int = 25,
    runs: int = 4,
    rng: np.random.Generator | None = None,
) -> SpectralBounds:
    """Estimate ``(b_sup, mu_1, mu_ne)`` with ``runs`` Lanczos sweeps."""
    if ne < 1:
        raise ValueError("ne must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    grid = hemm.grid
    H = hemm.H
    N = H.N
    steps = max(2, min(steps, N - 1))
    dtype = np.dtype(H.dtype)

    thetas: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    b_sup = -np.inf
    mu1 = np.inf

    for _run in range(runs):
        alphas, betas = _lanczos_sweep(hemm, rng, steps)
        k = len(alphas)
        theta, U = scipy.linalg.eigh_tridiagonal(
            np.array(alphas), np.array(betas[: k - 1])
        )
        resid = betas[k - 1] * np.abs(U[-1, :])
        b_sup = max(b_sup, float(np.max(theta + resid)))
        mu1 = min(mu1, float(np.min(theta - resid)))
        thetas.append(theta)
        weights.append(np.abs(U[0, :]) ** 2)

    # stochastic cumulative DoS -> ne-quantile (see repro.core.dos)
    from repro.core.dos import SpectralDensity

    dos = SpectralDensity.from_samples(thetas, weights, N, mu1, b_sup)
    mu_ne = dos.quantile(min(ne, N))
    return SpectralBounds(b_sup=b_sup, mu1=mu1, mu_ne=mu_ne)
