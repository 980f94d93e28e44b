"""Deflation & locking (Algorithm 2, line 26).

Converged Ritz pairs (residual below the tolerance) are moved to the
front of the active block and excluded from subsequent filtering, QR and
projection steps.  Column permutations are rank-local in both vector
layouts (rows are what is distributed), so locking needs no
communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LockingResult", "plan_locking", "wanted_locked"]


@dataclass(frozen=True)
class LockingResult:
    """Outcome of one locking step."""

    perm: np.ndarray          # global column permutation (length ne)
    new_converged: int        # columns locked this iteration
    locked: int               # total locked columns after the step


def plan_locking(
    resd: np.ndarray,
    ritzv: np.ndarray,
    locked: int,
    tol_abs: float,
) -> LockingResult:
    """Build the column permutation that locks newly converged pairs.

    ``resd``/``ritzv`` are full-length (``ne``) with the leading
    ``locked`` entries already locked (their residuals are ignored).
    Converged active columns are moved, ordered by ascending Ritz value,
    to positions ``locked..locked+new_converged``; non-converged columns
    keep their relative order.
    """
    resd = np.asarray(resd, dtype=np.float64)
    ritzv = np.asarray(ritzv, dtype=np.float64)
    ne = resd.shape[0]
    if ritzv.shape[0] != ne:
        raise ValueError("resd and ritzv must have equal length")
    if not 0 <= locked <= ne:
        raise ValueError(f"locked={locked} out of range")
    if tol_abs <= 0:
        raise ValueError("tolerance must be positive")

    active = np.arange(locked, ne)
    conv_mask = resd[active] < tol_abs
    conv = active[conv_mask]
    conv = conv[np.argsort(ritzv[conv], kind="stable")]
    rest = active[~conv_mask]
    perm = np.concatenate([np.arange(locked), conv, rest]).astype(np.int64)
    return LockingResult(
        perm=perm, new_converged=int(conv.shape[0]), locked=locked + int(conv.shape[0])
    )


def wanted_locked(ritzv: np.ndarray, locked: int, nev: int) -> bool:
    """Whether the ``nev`` lowest Ritz values are all locked — the stop
    test of the outer loop.

    :func:`plan_locking` locks every converged column, contiguous in
    Ritz order or not, so ``locked >= nev`` alone can hold while a
    wanted pair is still active (it missed the tolerance by a hair and a
    converged extra took its place).  The solve is done only when the
    ``nev``-th smallest locked Ritz value does not exceed the smallest
    active one, or nothing is active.
    """
    if locked < nev:
        return False
    if locked == len(ritzv):
        return True
    nth = np.partition(ritzv[:locked], nev - 1)[nev - 1]
    return bool(nth <= np.min(ritzv[locked:]))
