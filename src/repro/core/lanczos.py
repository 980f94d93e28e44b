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

The runs are one block sweep (:func:`repro.core.dos.block_lanczos`):
each step is one distributed HEMM of width ``runs`` — the filter's
HEMM — with one B->C redistribution (the recurrence needs ``H V`` back
in the layout of ``V``) and one allreduce per column communicator for
each of ``alpha`` and ``beta``, all ``runs`` values at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dos import (
    SpectralDensity,
    block_lanczos,
    lanczos_steps,
    ritz_from_tridiagonal,
    start_block,
)
from repro.arrays import PhantomArray
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector, Operand
from repro.distributed.redistribute import redistribute_b_to_c
from repro.runtime.device import (
    dot_columns_numeric,
    scale_columns_numeric,
    sub_scaled_columns_numeric,
)

__all__ = ["SpectralBounds", "lanczos_bounds", "lanczos_ritz", "block_sweep"]


@dataclass(frozen=True)
class SpectralBounds:
    """Spectral estimates returned by the Lanczos pre-processing."""

    b_sup: float
    mu1: float
    mu_ne: float


# The recurrence's batched vector kernels on C-layout multivectors:
# charged per shape class from the block shapes (recorded steps), then
# computed on the whole array, but the dots once per part, allreduced
# over the column communicators.

def _dot_columns(X, Y) -> np.ndarray:
    Operand.of(X).charge(X.grid, lambda k, rows: k.dot_columns(
        PhantomArray((rows, X.ne), X.dtype),
        PhantomArray((rows, X.ne), Y.dtype)), ("dot", Y.dtype),
        reduce=X.ne * np.result_type(X.dtype, Y.dtype).itemsize)
    return X.allreduce([dot_columns_numeric(x, y)
                        for x, y in zip(X.parts, Y.parts)])


def _sub_scaled_columns(X, Y, s) -> DistributedMultiVector:
    Operand.of(X).charge(X.grid, lambda k, rows: k.sub_scaled_columns(
        PhantomArray((rows, X.ne), X.dtype),
        PhantomArray((rows, X.ne), Y.dtype)), ("sub", Y.dtype))
    return X.with_data(sub_scaled_columns_numeric(X.data, Y.data, s))


def _scale_columns(X, s) -> DistributedMultiVector:
    Operand.of(X).charge(X.grid, lambda k, rows: k.scale_columns(
        PhantomArray((rows, X.ne), X.dtype)), "scale")
    return X.with_data(scale_columns_numeric(X.data, s))


def block_sweep(
    hemm: DistributedHemm, V0: np.ndarray, steps: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One distributed block Lanczos sweep from the columns of ``V0``.

    Returns each column's tridiagonal coefficients ``(alphas, betas)``;
    every HEMM application, redistribution and allreduce is honestly
    charged.
    """
    grid, H = hemm.grid, hemm.H
    dtype = np.dtype(H.dtype)

    def apply(V):
        W = DistributedMultiVector.zeros(grid, H.rowmap, "C", V.ne, dtype)
        redistribute_b_to_c(grid, hemm.apply(V), W)
        return W

    V = DistributedMultiVector.from_global(
        grid, np.asarray(V0, dtype=dtype), H.rowmap, "C")
    return block_lanczos(V, steps, apply, _dot_columns, _sub_scaled_columns,
                         _scale_columns)


def _sweep(hemm, steps, runs, rng):
    rng = rng if rng is not None else np.random.default_rng()
    N = hemm.H.N
    return block_sweep(hemm, start_block(rng, N, runs, hemm.H.dtype),
                       lanczos_steps(steps, N))


def lanczos_ritz(
    hemm: DistributedHemm,
    *,
    steps: int = 25,
    runs: int = 1,
    rng: np.random.Generator | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(ritz_values, residual_bounds)`` of ``runs`` Lanczos runs.

    Each run's Ritz values come with their rigorous Krylov residual
    bounds: ``|theta_j - lambda| <= resid_j`` holds for *some* true
    eigenvalue ``lambda`` of the operator.  That one-sided guarantee is
    what spectrum-coverage checks need: a well-converged probe value
    that is far from every accepted eigenvalue *proves* the acceptance
    missed spectrum, with no false positives regardless of probe
    quality (DESIGN.md §5f).  All distributed work is honestly charged.
    """
    return [ritz_from_tridiagonal(a, b)[:2]
            for a, b in _sweep(hemm, steps, runs, rng)]


def lanczos_bounds(
    hemm: DistributedHemm,
    ne: int,
    *,
    steps: int = 25,
    runs: int = 4,
    rng: np.random.Generator | None = None,
) -> SpectralBounds:
    """Estimate ``(b_sup, mu_1, mu_ne)`` with one width-``runs`` sweep."""
    if ne < 1:
        raise ValueError("ne must be >= 1")
    N = hemm.H.N
    dos = SpectralDensity.from_tridiagonals(_sweep(hemm, steps, runs, rng), N)
    return SpectralBounds(b_sup=dos.upper, mu1=dos.lower,
                          mu_ne=dos.quantile(min(ne, N)))
