"""Single-process reference implementation of ChASE (Algorithm 1).

A compact NumPy translation of the algorithm, used as the oracle for the
distributed solver's tests and as the most convenient entry point for
small problems (see ``examples/quickstart.py``).  It shares the degree
optimization, condition estimation and locking logic with the
distributed path, but performs the filter, QR and projection directly on
global arrays.

Mirroring the C++ library's abstract-HEMM interface, ``H`` may be
anything that implements ``@`` against blocks of vectors — a dense
``ndarray``, a ``scipy.sparse`` matrix, or a
``scipy.sparse.linalg.LinearOperator`` (matrix-free mode).  Only the
Hermitian matrix-block products are ever requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.core.condest import estimate_condition
from repro.core.config import ChaseConfig
from repro.core.degrees import optimize_degrees, sort_by_degree
from repro.core.locking import plan_locking, wanted_locked
from repro.runtime import blas

__all__ = ["SerialResult", "chase_serial"]


@dataclass
class SerialResult:
    """Outcome of a serial solve."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    converged: bool
    iterations: int
    matvecs: int
    cond_estimates: list[float]
    qr_variants: list[str]
    #: the full ``N x ne`` final search subspace (locked columns first,
    #: ascending Ritz value) — what a warm-started continuation reuses
    #: (:mod:`repro.core.sequence`, :mod:`repro.service.warmstart`)
    subspace: np.ndarray | None = None


def _lanczos_bounds_serial(
    H: np.ndarray, ne: int, steps: int, runs: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    N = H.shape[0]
    dtype = np.dtype(getattr(H, "dtype", np.float64) or np.float64)
    steps = max(2, min(steps, N - 1))
    thetas, weights = [], []
    b_sup, mu1 = -np.inf, np.inf
    for _ in range(runs):
        v = rng.standard_normal(N)
        if dtype.kind == "c":
            v = v + 1j * rng.standard_normal(N)
        v = (v / np.linalg.norm(v)).astype(dtype)
        V = [v]
        alphas, betas = [], []
        beta = 0.0
        for k in range(steps):
            w = H @ V[-1]
            alpha = float(np.vdot(V[-1], w).real)
            w = w - alpha * V[-1] - (beta * V[-2] if k else 0.0)
            beta = float(np.linalg.norm(w))
            alphas.append(alpha)
            betas.append(beta)
            if beta < 1e-12 * max(abs(alpha), 1.0):
                break
            V.append(w / beta)
        k = len(alphas)
        theta, U = scipy.linalg.eigh_tridiagonal(
            np.array(alphas), np.array(betas[: k - 1])
        )
        resid = betas[k - 1] * np.abs(U[-1, :])
        b_sup = max(b_sup, float(np.max(theta + resid)))
        mu1 = min(mu1, float(np.min(theta - resid)))
        thetas.append(theta)
        weights.append(np.abs(U[0, :]) ** 2)
    pooled_t = np.concatenate(thetas)
    pooled_w = np.concatenate(weights) * (H.shape[0] / runs)
    order = np.argsort(pooled_t)
    cum = np.cumsum(pooled_w[order])
    idx = np.searchsorted(cum, float(ne))
    mu_ne = (
        float(pooled_t[order[idx]])
        if idx < len(order)
        else mu1 + (b_sup - mu1) * min(ne / H.shape[0], 1.0)
    )
    span = b_sup - mu1
    mu_ne = float(np.clip(mu_ne, mu1 + 1e-3 * span, b_sup - 1e-3 * span))
    return b_sup, mu1, mu_ne


def _filter_serial(
    H: np.ndarray, X: np.ndarray, degrees: np.ndarray, c: float, e: float, mu1: float
) -> tuple[np.ndarray, int]:
    """Scaled three-term Chebyshev recurrence with per-column degrees."""
    degrees = np.asarray(degrees, dtype=np.int64)
    max_deg = int(degrees.max())
    out = np.empty_like(X)
    retired = 0
    matvecs = 0

    sigma1 = e / (mu1 - c)
    sigma = sigma1
    X_prev = X
    X_cur = (sigma1 / e) * (H @ X_prev - c * X_prev)
    matvecs += X.shape[1]

    for t in range(2, max_deg + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        X_next = (2.0 * sigma_new / e) * (H @ X_cur - c * X_cur) - (
            sigma * sigma_new
        ) * X_prev
        matvecs += X_cur.shape[1]
        sigma = sigma_new
        X_prev, X_cur = X_cur, X_next
        if t % 2 == 0:
            done = int(np.searchsorted(degrees[retired:], t, side="right"))
            if done:
                out[:, retired : retired + done] = X_cur[:, :done]
                retired += done
                X_cur = X_cur[:, done:]
                X_prev = X_prev[:, done:]
                if retired == degrees.shape[0]:
                    break
    assert retired == degrees.shape[0]
    return out, matvecs


def _qr_serial(V: np.ndarray, cond: float) -> tuple[np.ndarray, str]:
    """Serial analogue of Algorithm 4 (CholeskyQR family + fallback)."""
    from repro.core.qr import shifted_threshold, unit_roundoff

    def chol_pass(X):
        G = X.conj().T @ X
        R = np.linalg.cholesky(0.5 * (G + G.conj().T)).conj().T
        return scipy.linalg.solve_triangular(R.T, X.T, lower=True).T

    try:
        if cond > shifted_threshold(V.dtype):
            G = V.conj().T @ V
            m, n = V.shape
            u = unit_roundoff(V.dtype)
            s = 11.0 * (m * n + n * (n + 1)) * u * float(np.vdot(V, V).real)
            G = 0.5 * (G + G.conj().T)
            G[np.diag_indices(n)] += s  # dtype-preserving diagonal shift
            R = np.linalg.cholesky(G).conj().T
            V = scipy.linalg.solve_triangular(R.T, V.T, lower=True).T
            V = chol_pass(chol_pass(V))
            return V, "sCholeskyQR2"
        if cond < 20:
            return chol_pass(V), "CholeskyQR1"
        return chol_pass(chol_pass(V)), "CholeskyQR2"
    except np.linalg.LinAlgError:
        Q, _ = np.linalg.qr(V)
        return Q, "HHQR"


@blas.one_pool_scope()
def chase_serial(
    H,
    config: ChaseConfig,
    V0: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> SerialResult:
    """Compute the lowest ``config.nev`` eigenpairs of Hermitian ``H``.

    ``H`` may be a dense array, a sparse matrix, or any operator
    supporting ``H @ X`` on ``N x k`` blocks (matrix-free mode).
    """
    if isinstance(H, np.ndarray):
        H = np.asarray(H)
    if H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    N = H.shape[0]
    dtype = np.dtype(getattr(H, "dtype", np.float64) or np.float64)
    cfg = config
    ne, nev = cfg.ne, cfg.nev
    if ne > N:
        raise ValueError(f"subspace ne={ne} exceeds N={N}")
    rng = rng if rng is not None else np.random.default_rng()

    if V0 is None:
        V = rng.standard_normal((N, ne))
        if dtype.kind == "c":
            V = V + 1j * rng.standard_normal((N, ne))
        V = V.astype(dtype)
    else:
        V = np.array(V0, dtype=dtype, copy=True)

    b_sup, mu1, mu_ne = _lanczos_bounds_serial(
        H, ne, cfg.lanczos_steps, cfg.lanczos_runs, rng
    )
    tol_abs = cfg.tol * max(abs(mu1), abs(b_sup))

    ritzv = np.full(ne, mu1)
    resd = None
    degs_full = np.full(ne, cfg.deg, dtype=np.int64)
    locked = 0
    matvecs = 0
    conds: list[float] = []
    variants: list[str] = []
    it = 0

    while it < cfg.max_iter and not wanted_locked(ritzv, locked, nev):
        it += 1
        if it > 1:
            mu1_f, mu_ne_f = float(np.min(ritzv)), float(np.max(ritzv))
        else:
            mu1_f, mu_ne_f = mu1, mu_ne
        c = (b_sup + mu_ne_f) / 2.0
        e = (b_sup - mu_ne_f) / 2.0

        if cfg.opt and resd is not None:
            degs = optimize_degrees(
                resd[locked:], ritzv[locked:], c, e, tol_abs,
                max_deg=cfg.max_deg, extra=cfg.deg_extra,
            )
        else:
            degs = np.full(ne - locked, cfg.deg, dtype=np.int64)
        order = sort_by_degree(degs)
        perm = np.concatenate([np.arange(locked), locked + order])
        V = V[:, perm]
        ritzv = ritzv[perm]
        if resd is not None:
            resd = resd[perm]
        degs = degs[order]
        degs_full[locked:] = degs

        V[:, locked:], mv = _filter_serial(H, V[:, locked:], degs, c, e, mu1_f)
        matvecs += mv
        cond = estimate_condition(ritzv, c, e, degs_full, locked)
        conds.append(cond)

        Vlocked = V[:, :locked].copy()
        Q, variant = _qr_serial(V, cond)
        variants.append(variant)
        V = Q
        V[:, :locked] = Vlocked

        W = H @ V[:, locked:]
        matvecs += ne - locked
        A = V[:, locked:].conj().T @ W
        A = 0.5 * (A + A.conj().T)
        lam, Y = np.linalg.eigh(A)
        V[:, locked:] = V[:, locked:] @ Y

        W = H @ V[:, locked:]
        matvecs += ne - locked
        R = W - V[:, locked:] * lam[None, :]
        resd_active = np.linalg.norm(R, axis=0)

        ritzv = np.concatenate([ritzv[:locked], lam])
        resd = (
            np.concatenate([resd[:locked], resd_active])
            if resd is not None
            else np.concatenate([np.zeros(locked), resd_active])
        )
        lock = plan_locking(resd, ritzv, locked, tol_abs)
        V = V[:, lock.perm]
        ritzv = ritzv[lock.perm]
        resd = resd[lock.perm]
        degs_full = degs_full[lock.perm]
        locked = lock.locked

    final = np.concatenate(
        [np.argsort(ritzv[:locked], kind="stable"), np.arange(locked, ne)]
    )
    V = V[:, final]
    ritzv = ritzv[final]
    resd = resd[final] if resd is not None else np.full(ne, np.nan)

    return SerialResult(
        eigenvalues=ritzv[:nev].copy(),
        eigenvectors=V[:, :nev].copy(),
        residual_norms=resd[:nev].copy(),
        converged=wanted_locked(ritzv, locked, nev),
        iterations=it,
        matvecs=matvecs,
        cond_estimates=conds,
        qr_variants=variants,
        subspace=V.copy(),
    )
