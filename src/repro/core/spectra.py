"""Chebyshev amplification arithmetic shared by the filter, the degree
optimization and the condition-number estimate.

The degree-``m`` Chebyshev polynomial of the first kind grows outside
the reference interval ``[-1, 1]`` like

    |T_m(t)| ~ |rho(t)|^m / 2,   |rho(t)| = |t| + sqrt(t^2 - 1) > 1,

while staying bounded by 1 inside.  Mapping the unwanted spectrum
``[mu_ne, b_sup]`` onto ``[-1, 1]`` via ``t = (lambda - c)/e`` with
``c = (b_sup + mu_ne)/2`` and ``e = (b_sup - mu_ne)/2`` therefore damps
unwanted components and amplifies wanted ones by ``|rho|^m``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "map_to_reference",
    "growth_factor",
    "required_degree",
]


def map_to_reference(lam, c: float, e: float):
    """``t = (lambda - c) / e`` — affine map onto the reference interval."""
    if e <= 0:
        raise ValueError("half-width e must be positive")
    return (np.asarray(lam, dtype=np.float64) - c) / e


def growth_factor(t) -> np.ndarray:
    """``|rho(t)| = max(|t - sqrt(t^2-1)|, |t + sqrt(t^2-1)|)``.

    Equals 1 inside ``[-1, 1]`` (where the square root is imaginary and
    both branches lie on the unit circle) and ``|t| + sqrt(t^2-1) > 1``
    outside.  Vectorized; scalar in, scalar out.
    """
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    out = np.where(a <= 1.0, 1.0, a + np.sqrt(np.maximum(a * a - 1.0, 0.0)))
    return out if out.ndim else float(out)

def required_degree(
    res: float, tol: float, rho: float, *, min_deg: int = 2, max_deg: int = 36
) -> int:
    """Smallest even degree driving a residual ``res`` below ``tol``.

    One filter pass multiplies the relative size of the unwanted
    components of a Ritz vector by ``~1/rho^m`` (``rho`` is the wanted
    eigenvalue's growth factor), so ``m >= log(res/tol) / log(rho)``.
    The result is clamped to ``[min_deg, max_deg]`` and rounded up to an
    even value — ChASE enforces even degrees so filtered vectors always
    land back in the C layout (paper Sec. 3.1).
    """
    if tol <= 0 or res < 0:
        raise ValueError("need tol > 0 and res >= 0")
    if rho <= 1.0 + 1e-15:
        m = max_deg
    elif res <= tol:
        m = min_deg
    else:
        m = math.ceil(math.log(res / tol) / math.log(rho))
    m = max(min_deg, min(m, max_deg))
    if m % 2:
        m = min(m + 1, max_deg if max_deg % 2 == 0 else max_deg - 1)
    return m
